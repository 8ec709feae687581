//! The file-based solution (Rapidlasso LAStools reimplementation).
//!
//! Queries run directly against a directory of LAS / laz-lite files:
//!
//! 1. **Catalog pre-filter** — every file's header is read once at open
//!    time into a metadata catalog; a selection inspects only headers
//!    whose bbox intersects the window (the paper notes that without a
//!    catalog "it is already a large amount of files to be inspected for
//!    a simple selection", and that van Oosterom et al. resorted to a DBMS for exactly
//!    this metadata).
//! 2. **`lasindex`** — an optional per-file quadtree narrows the query to
//!    candidate record intervals, which are decoded with range reads
//!    (chunk-level skips on laz-lite files).
//! 3. **`lassort`** — an optional rewrite of each file in space-filling-
//!    curve order, which makes those intervals few and contiguous.

use std::path::{Path, PathBuf};

use lidardb_geom::{Envelope, Geometry, Point};
use lidardb_las::{read_las_file, write_las_file, LasHeader, LasReader, PointRecord};
use lidardb_sfc::{Curve, Quantizer};

use crate::error::BaselineError;
use crate::quadtree::QuadTree;

/// Leaf capacity of the per-file quadtree (lasindex defaults to intervals
/// of a few hundred points).
const LEAF_CAP: usize = 256;

/// Per-query work accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileQueryStats {
    /// Files in the catalog.
    pub files_total: usize,
    /// Files whose header bbox intersected the window.
    pub files_matched: usize,
    /// Files actually opened and (partially) decoded.
    pub files_opened: usize,
    /// Point records decoded from disk.
    pub records_decoded: usize,
    /// Result cardinality.
    pub results: usize,
}

#[derive(Debug)]
struct CatalogEntry {
    path: PathBuf,
    header: LasHeader,
    index: Option<QuadTree>,
}

/// A LAStools-like engine over a directory of point-cloud files.
#[derive(Debug)]
pub struct FileStore {
    entries: Vec<CatalogEntry>,
}

impl FileStore {
    /// Open a directory: reads every file header into the catalog (but no
    /// point data).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, BaselineError> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir.as_ref())
            .map_err(lidardb_las::LasError::Io)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                matches!(
                    p.extension().and_then(|e| e.to_str()),
                    Some("las" | "laz" | "lazl")
                )
            })
            .collect();
        paths.sort();
        let mut entries = Vec::with_capacity(paths.len());
        for path in paths {
            let header = LasReader::read_header(&path)?;
            entries.push(CatalogEntry {
                path,
                header,
                index: None,
            });
        }
        Ok(FileStore { entries })
    }

    /// Number of catalogued files.
    pub fn num_files(&self) -> usize {
        self.entries.len()
    }

    /// Total points declared by the headers.
    pub fn num_points(&self) -> u64 {
        self.entries.iter().map(|e| e.header.num_points).sum()
    }

    /// `lassort`: rewrite every file with its records ordered along the
    /// given space-filling curve. Existing indexes are dropped (they must
    /// be rebuilt, as with the real tools).
    pub fn sort_files(&mut self, curve: Curve) -> Result<(), BaselineError> {
        for e in self.entries.iter_mut() {
            let (header, mut records) = read_las_file(&e.path)?;
            if records.is_empty() {
                continue;
            }
            let q = Quantizer::new(
                header.min[0],
                header.min[1],
                // Guard degenerate bboxes (single-point files).
                header.max[0].max(header.min[0] + 1e-9),
                header.max[1].max(header.min[1] + 1e-9),
                16,
            );
            records.sort_by_cached_key(|r| {
                let (cx, cy) = q.cell(r.x, r.y);
                curve.encode(cx, cy)
            });
            e.header = write_las_file(&e.path, header, &records)?;
            e.index = None;
        }
        Ok(())
    }

    /// `lasindex`: build the per-file quadtree for every file.
    pub fn build_indexes(&mut self) -> Result<(), BaselineError> {
        for e in self.entries.iter_mut() {
            let (_, records) = read_las_file(&e.path)?;
            let pts: Vec<(f64, f64)> = records.iter().map(|r| (r.x, r.y)).collect();
            let env = Envelope::new(
                e.header.min[0],
                e.header.min[1],
                e.header.max[0].max(e.header.min[0]),
                e.header.max[1].max(e.header.min[1]),
            )
            .map_err(|err| BaselineError::Invalid(err.to_string()))?;
            e.index = Some(QuadTree::build(&pts, env, LEAF_CAP));
        }
        Ok(())
    }

    /// Whether indexes have been built.
    pub fn is_indexed(&self) -> bool {
        !self.entries.is_empty() && self.entries.iter().all(|e| e.index.is_some())
    }

    /// Rectangular selection: *"select all LIDAR points within a given
    /// region"* (scenario 1).
    pub fn query_bbox(
        &self,
        window: &Envelope,
    ) -> Result<(Vec<PointRecord>, FileQueryStats), BaselineError> {
        self.query_filtered(window, |_| true)
    }

    /// Geometry selection: bbox pre-filter, then the exact predicate per
    /// decoded point (file-based tools have no refinement grid).
    pub fn query_geometry(
        &self,
        g: &Geometry,
    ) -> Result<(Vec<PointRecord>, FileQueryStats), BaselineError> {
        let Some(env) = g.envelope() else {
            return Ok((
                Vec::new(),
                FileQueryStats {
                    files_total: self.entries.len(),
                    ..FileQueryStats::default()
                },
            ));
        };
        self.query_filtered(&env, |r| {
            lidardb_geom::contains_point(g, &Point::new(r.x, r.y))
        })
    }

    fn query_filtered(
        &self,
        window: &Envelope,
        extra: impl Fn(&PointRecord) -> bool,
    ) -> Result<(Vec<PointRecord>, FileQueryStats), BaselineError> {
        let mut stats = FileQueryStats {
            files_total: self.entries.len(),
            ..FileQueryStats::default()
        };
        let mut out = Vec::new();
        for e in &self.entries {
            if !e
                .header
                .bbox_intersects(window.min_x, window.min_y, window.max_x, window.max_y)
            {
                continue;
            }
            stats.files_matched += 1;
            stats.files_opened += 1;
            let reader = LasReader::open(&e.path)?;
            let candidates: Vec<PointRecord> = match &e.index {
                Some(tree) => {
                    let mut recs = Vec::new();
                    for (s, end) in tree.query(window) {
                        recs.extend(reader.read_points_range(s, end)?);
                    }
                    recs
                }
                None => reader.read_points()?,
            };
            stats.records_decoded += candidates.len();
            out.extend(
                candidates
                    .into_iter()
                    .filter(|r| window.contains(&Point::new(r.x, r.y)) && extra(r)),
            );
        }
        stats.results = out.len();
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidardb_las::Compression;

    /// 4 tiles of a 100x100 world, 2500 grid points each.
    fn make_store(dir: &Path, compression: Compression) -> FileStore {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).unwrap();
        for (tx, ty) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
            let recs: Vec<PointRecord> = (0..50)
                .flat_map(|y| {
                    (0..50).map(move |x| PointRecord {
                        x: (tx * 50 + x) as f64,
                        y: (ty * 50 + y) as f64,
                        z: 1.0,
                        classification: 2,
                        ..Default::default()
                    })
                })
                .collect();
            write_las_file(
                dir.join(format!("tile_{tx}{ty}.las")),
                LasHeader::builder().compression(compression).build(),
                &recs,
            )
            .unwrap();
        }
        FileStore::open(dir).unwrap()
    }

    fn env(a: f64, b: f64, c: f64, d: f64) -> Envelope {
        Envelope::new(a, b, c, d).unwrap()
    }

    #[test]
    fn catalog_prunes_files() {
        let dir = lidardb_test_support::ScratchDir::new("fs_test_a");
        let fs = make_store(&dir, Compression::None);
        assert_eq!(fs.num_files(), 4);
        assert_eq!(fs.num_points(), 10_000);
        // A window entirely inside tile (0,0).
        let (recs, stats) = fs.query_bbox(&env(5.0, 5.0, 20.0, 20.0)).unwrap();
        assert_eq!(recs.len(), 16 * 16);
        assert_eq!(stats.files_matched, 1, "three headers pruned");
        assert_eq!(stats.files_total, 4);
    }

    #[test]
    fn index_reduces_decoded_records() {
        let dir = lidardb_test_support::ScratchDir::new("fs_test_b");
        let mut fs = make_store(&dir, Compression::None);
        let window = env(5.0, 5.0, 10.0, 10.0);
        let (recs_a, stats_a) = fs.query_bbox(&window).unwrap();
        fs.build_indexes().unwrap();
        assert!(fs.is_indexed());
        let (recs_b, stats_b) = fs.query_bbox(&window).unwrap();
        let mut a: Vec<_> = recs_a.iter().map(|r| (r.x as i64, r.y as i64)).collect();
        let mut b: Vec<_> = recs_b.iter().map(|r| (r.x as i64, r.y as i64)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "same result set");
        assert!(
            stats_b.records_decoded < stats_a.records_decoded / 2,
            "index must cut decode work: {} vs {}",
            stats_b.records_decoded,
            stats_a.records_decoded
        );
    }

    #[test]
    fn lassort_plus_index_on_lazlite() {
        let dir = lidardb_test_support::ScratchDir::new("fs_test_c");
        let mut fs = make_store(&dir, Compression::LazLite);
        fs.sort_files(Curve::Morton).unwrap();
        fs.build_indexes().unwrap();
        let (recs, stats) = fs.query_bbox(&env(60.0, 60.0, 80.0, 80.0)).unwrap();
        assert_eq!(recs.len(), 21 * 21);
        assert_eq!(stats.files_matched, 1);
        assert!(stats.records_decoded < 2500);
    }

    #[test]
    fn geometry_query_refines_per_point() {
        let dir = lidardb_test_support::ScratchDir::new("fs_test_d");
        let fs = make_store(&dir, Compression::None);
        let tri = Geometry::Polygon(
            lidardb_geom::Polygon::from_exterior(vec![
                Point::new(0.0, 0.0),
                Point::new(40.0, 0.0),
                Point::new(0.0, 40.0),
            ])
            .unwrap(),
        );
        let (recs, _) = fs.query_geometry(&tri).unwrap();
        for r in &recs {
            assert!(
                r.x + r.y <= 40.0 + 1e-9,
                "({}, {}) outside triangle",
                r.x,
                r.y
            );
        }
        // Triangle area holds ~861 lattice points.
        assert!(recs.len() > 800 && recs.len() < 950, "{}", recs.len());
    }

    #[test]
    fn empty_window_and_empty_dir() {
        let dir = lidardb_test_support::ScratchDir::new("fs_test_e");
        let fs = make_store(&dir, Compression::None);
        let (recs, stats) = fs.query_bbox(&env(500.0, 500.0, 600.0, 600.0)).unwrap();
        assert!(recs.is_empty());
        assert_eq!(stats.files_matched, 0);
        let empty = lidardb_test_support::ScratchDir::new("fs_test_empty");
        let fs = FileStore::open(&*empty).unwrap();
        assert_eq!(fs.num_files(), 0);
        assert!(!fs.is_indexed());
    }
}
