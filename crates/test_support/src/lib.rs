//! # lidardb-test-support — the substrate every suite stands on
//!
//! Two things, shared by the workspace's tests, its examples and the
//! paper harness, and a few short readings of engine state that several
//! suites make:
//!
//! * [`ScratchDir`] — the one temp directory. Named by a label, the
//!   process id and a per-process counter, so parallel tests and
//!   concurrent runs never share one; removed on drop together with its
//!   sibling `<dir>.wal`, so a recycled pid never replays a stale log.
//! * [`Model`] — the one brute-force oracle of a point table: records
//!   plus a visibility watermark, answering select, count and aggregate
//!   by sending every visible record through the exact predicate. No
//!   imprints, no grid, no scan kernels — the paper's claim (§3.3) is that
//!   the engine returns exactly these rows.
//! * [`select`], [`resident_tiles`], [`area`] — a tiled select with the
//!   default policies, the resident tile count, an envelope's area.
//! * [`CountingAlloc`] — the system allocator with a count of the bytes
//!   in use, for a test binary that weighs what a table holds.
//!
//! A crate this one depends on (core, las, geom, storage) may use only
//! [`ScratchDir`] in its own unit tests: through the dev-dependency cycle
//! they see a second copy of that crate, whose types are not theirs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

use lidardb_core::wal::wal_path_for;
use lidardb_core::{
    Aggregate, AttrRange, CoreError, Parallelism, RefineStrategy, Selection, SpatialPredicate,
    TiledCloud,
};
use lidardb_geom::{Envelope, Point};
use lidardb_las::schema::{column_value_f64, COLUMN_NAMES, COLUMN_TYPES};
use lidardb_las::PointRecord;
use lidardb_storage::PhysicalType;

/// The system allocator, counting the bytes it hands out net of those
/// returned. A test binary declares it `#[global_allocator]`; it should
/// hold one `#[test]`, so that no test running beside it moves the count.
pub struct CountingAlloc;

static IN_USE: AtomicIsize = AtomicIsize::new(0);

impl CountingAlloc {
    /// Start counting from zero.
    pub fn reset(&self) {
        IN_USE.store(0, Ordering::SeqCst);
    }

    /// Bytes allocated since the last [`Self::reset`] and not yet freed:
    /// negative when more was freed than allocated since.
    pub fn in_use(&self) -> isize {
        IN_USE.load(Ordering::SeqCst)
    }
}

fn count(delta: isize) {
    IN_USE.fetch_add(delta, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter never touches the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        q
    }
}

/// A fresh directory under the system temp dir, `lidardb_<label>_<pid>_<n>`,
/// removed with its contents and its sibling WAL (`<dir>.wal`) on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create the directory, clearing any stale copy first. Panics if it
    /// cannot be created: no test can run without it.
    pub fn new(label: &str) -> ScratchDir {
        let scratch = ScratchDir::vacant(label);
        std::fs::create_dir_all(&scratch.0)
            .unwrap_or_else(|e| panic!("create scratch dir {}: {e}", scratch.0.display()));
        scratch
    }

    /// A fresh path named the same way, cleared but not created: for a
    /// caller that makes the directory itself — a table opened for ingest,
    /// a tile set being saved. Its WAL lands beside it, and goes with it.
    pub fn vacant(label: &str) -> ScratchDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("lidardb_{label}_{}_{n}", std::process::id()));
        let scratch = ScratchDir(dir);
        scratch.clear();
        scratch
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    fn clear(&self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_file(wal_path_for(&self.0));
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        self.clear();
    }
}

impl std::ops::Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for ScratchDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

/// A spatial select on a tiled cloud with the default strategy and
/// worker policy.
pub fn select(tc: &TiledCloud, pred: &SpatialPredicate) -> Result<Selection, CoreError> {
    tc.select_query_with(
        Some(pred),
        &[],
        RefineStrategy::default(),
        Parallelism::default(),
    )
}

/// Tiles with resident columns, read from the `sys.tiles` snapshot.
pub fn resident_tiles(tc: &TiledCloud) -> usize {
    tc.tile_residency()
        .iter()
        .filter(|t| t.resident_bytes.is_some())
        .count()
}

/// An envelope's area.
pub fn area(e: &Envelope) -> f64 {
    e.width() * e.height()
}

/// An aggregate as the model computes it: `COUNT` and the `MIN`/`MAX` of
/// an integer column exactly (a `u64` past 2^53 does not fit an `f64`),
/// everything else as `f64`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub enum Value {
    /// An exact integer.
    Int(i128),
    /// A float.
    Float(f64),
}

impl Value {
    /// The value widened to `f64`, as the engine's typed fold returns it.
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Float(v) => v,
        }
    }
}

/// The brute-force model of a point table: its records in row order and
/// the watermark below which they are visible (the committed snapshot).
/// Row ids are positions in `records`.
#[derive(Debug, Clone)]
pub struct Model {
    records: Vec<PointRecord>,
    visible: usize,
}

impl Model {
    /// A model whose records are all visible.
    pub fn new(records: Vec<PointRecord>) -> Model {
        let visible = records.len();
        Model { records, visible }
    }

    /// The same model with only the first `visible` records visible.
    pub fn with_visible(mut self, visible: usize) -> Model {
        self.set_visible(visible);
        self
    }

    /// Move the watermark (a commit advances it).
    pub fn set_visible(&mut self, visible: usize) {
        assert!(
            visible <= self.records.len(),
            "watermark past the last record"
        );
        self.visible = visible;
    }

    /// The visible record with row id `id`; panics on a row past the
    /// watermark, which no engine answer may contain.
    pub fn record(&self, id: usize) -> &PointRecord {
        assert!(
            id < self.visible,
            "row {id} is past the watermark {}",
            self.visible
        );
        &self.records[id]
    }

    /// Ids of the visible records inside `pred` (the exact per-point test)
    /// and every inclusive range of `attrs`, ascending.
    pub fn select(&self, pred: Option<&SpatialPredicate>, attrs: &[AttrRange]) -> Vec<usize> {
        let ranges: Vec<(usize, f64, f64)> = attrs
            .iter()
            .map(|a| (column_index(&a.column), a.lo, a.hi))
            .collect();
        let keep = |r: &PointRecord| {
            pred.is_none_or(|p| p.matches(&Point::new(r.x, r.y)))
                && ranges.iter().all(|&(c, lo, hi)| {
                    let v = column_value_f64(r, c);
                    lo <= v && v <= hi
                })
        };
        (0..self.visible)
            .filter(|&id| keep(&self.records[id]))
            .collect()
    }

    /// How many visible records [`Model::select`] keeps.
    pub fn count(&self, pred: Option<&SpatialPredicate>, attrs: &[AttrRange]) -> usize {
        self.select(pred, attrs).len()
    }

    /// `agg` of `column` over the rows `ids` (a row listed twice counts
    /// twice, as a join pairs it). `None` where SQL answers `NULL`: any
    /// aggregate but `COUNT` over no rows. Sums are Neumaier-compensated,
    /// so the model's own rounding stays far below any tolerance.
    pub fn aggregate(&self, ids: &[usize], column: &str, agg: Aggregate) -> Option<Value> {
        if agg == Aggregate::Count {
            return Some(Value::Int(ids.len() as i128));
        }
        let c = column_index(column);
        let sum = || neumaier(ids.iter().map(|&id| column_value_f64(self.record(id), c)));
        let values = ids.iter().map(|&id| exact_value(self.record(id), c));
        match agg {
            Aggregate::Count => unreachable!("answered above"),
            Aggregate::Sum => (!ids.is_empty()).then(|| Value::Float(sum())),
            Aggregate::Avg => (!ids.is_empty()).then(|| Value::Float(sum() / ids.len() as f64)),
            Aggregate::Min => values.reduce(|a, b| if b < a { b } else { a }),
            Aggregate::Max => values.reduce(|a, b| if b > a { b } else { a }),
        }
    }

    /// `agg` of `column` over the rows `ids`, grouped by the integer column
    /// `key_column`: each key the rows hold, ascending, with
    /// [`Model::aggregate`] over its rows.
    pub fn group_by(
        &self,
        ids: &[usize],
        key_column: &str,
        column: &str,
        agg: Aggregate,
    ) -> BTreeMap<i128, Option<Value>> {
        let k = column_index(key_column);
        let mut groups: BTreeMap<i128, Vec<usize>> = BTreeMap::new();
        for &id in ids {
            let Value::Int(key) = exact_value(self.record(id), k) else {
                panic!("group key {key_column} is not an integer column");
            };
            groups.entry(key).or_default().push(id);
        }
        (groups.into_iter())
            .map(|(key, ids)| (key, self.aggregate(&ids, column, agg)))
            .collect()
    }
}

/// Schema position of a column name; panics on an unknown one.
fn column_index(name: &str) -> usize {
    COLUMN_NAMES
        .iter()
        .position(|&n| n == name)
        .unwrap_or_else(|| panic!("no column {name:?}"))
}

/// A record's value of column `c`: exact for integer columns, `f64` for
/// float ones.
fn exact_value(r: &PointRecord, c: usize) -> Value {
    match COLUMN_TYPES[c] {
        PhysicalType::F64 | PhysicalType::F32 => Value::Float(column_value_f64(r, c)),
        // The one 64-bit integer column: read it straight, not widened.
        PhysicalType::U64 => {
            assert_eq!(
                COLUMN_NAMES[c], "wave_offset",
                "the schema's only u64 column"
            );
            Value::Int(i128::from(r.wave_offset))
        }
        _ => Value::Int(column_value_f64(r, c) as i128),
    }
}

/// Neumaier-compensated sum.
fn neumaier(values: impl Iterator<Item = f64>) -> f64 {
    let (mut s, mut comp) = (0.0f64, 0.0f64);
    for v in values {
        let t = s + v;
        comp += if s.abs() >= v.abs() {
            (s - t) + v
        } else {
            (v - t) + s
        };
        s = t;
    }
    s + comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidardb_geom::{Envelope, Geometry, Polygon};

    fn grid() -> Vec<PointRecord> {
        (0..16)
            .map(|i| PointRecord {
                x: (i % 4) as f64,
                y: (i / 4) as f64,
                z: i as f64 * 0.5,
                intensity: i as u16,
                wave_offset: u64::MAX - i as u64,
                ..Default::default()
            })
            .collect()
    }

    #[test]
    fn scratch_dir_and_its_wal_go_on_drop() {
        let dir = ScratchDir::new("support_self_test");
        assert!(dir.is_dir());
        let wal = wal_path_for(dir.path());
        std::fs::write(&wal, b"log").unwrap();
        let path = dir.to_path_buf();
        let vacant = ScratchDir::vacant("support_self_test");
        assert!(
            vacant.path() != path && !vacant.exists(),
            "its own, and not made"
        );
        drop(dir);
        assert!(!path.exists() && !wal.exists());
    }

    #[test]
    fn model_selects_inclusively_below_the_watermark() {
        let model = Model::new(grid()).with_visible(12);
        let window = Envelope::new(1.0, 1.0, 2.0, 3.0).unwrap();
        let pred = SpatialPredicate::Within(Geometry::Polygon(Polygon::rectangle(&window)));
        // Edges count; row 13 = (1, 3) is past the watermark.
        assert_eq!(model.select(Some(&pred), &[]), [5, 6, 9, 10]);
        let attrs = [AttrRange::new("intensity", 6.0, 9.0)];
        assert_eq!(model.select(Some(&pred), &attrs), [6, 9]);
        assert_eq!(model.count(None, &[]), 12);
    }

    #[test]
    fn model_aggregates_exactly() {
        let model = Model::new(grid());
        let ids = [3, 1, 1];
        let agg = |column, agg| model.aggregate(&ids, column, agg);
        assert_eq!(agg("z", Aggregate::Count), Some(Value::Int(3)));
        assert_eq!(agg("z", Aggregate::Sum), Some(Value::Float(2.5)));
        assert_eq!(agg("intensity", Aggregate::Max), Some(Value::Int(3)));
        let min = Value::Int(i128::from(u64::MAX - 3));
        assert_eq!(
            agg("wave_offset", Aggregate::Min),
            Some(min),
            "exact past 2^53"
        );
        assert_eq!(model.aggregate(&[], "z", Aggregate::Avg), None);
    }

    #[test]
    fn model_groups_by_an_integer_key() {
        let mut records = grid();
        records
            .iter_mut()
            .for_each(|r| r.classification = (r.intensity % 3) as u8);
        let model = Model::new(records);
        let groups = model.group_by(&[0, 1, 2, 3, 4, 3], "classification", "z", Aggregate::Count);
        let counts: Vec<(i128, Option<Value>)> = groups.into_iter().collect();
        let count = |n| Some(Value::Int(n));
        assert_eq!(counts, [(0, count(3)), (1, count(2)), (2, count(1))]);
        let max = model.group_by(&[1, 4], "classification", "z", Aggregate::Max);
        assert_eq!(max.get(&1), Some(&Some(Value::Float(2.0))));
    }
}
