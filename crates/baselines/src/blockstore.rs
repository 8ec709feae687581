//! The block-based DBMS layout (PostgreSQL pointcloud / Oracle SDO_PC).
//!
//! §1 of the paper: *"Both systems base their performance on the physical
//! reorganisation of data into blocks with each block being a condensed
//! representation of multiple points. ... locating a block that contains
//! the data of interest (and possibly more) is faster when searching
//! through blocks (less number of elements) than searching through each
//! single point."*
//!
//! Points are sorted along a space-filling curve (Oracle uses Hilbert,
//! §2.3), grouped into fixed-capacity blocks, and each block stores its
//! bbox plus a compressed payload. Queries scan the (small) block table by
//! bbox and decode + refine only matching blocks. The CSV text route that
//! gives the PostgreSQL load its "almost a week" is [`crate::csv`].

use lidardb_geom::{Envelope, Geometry, Point};
use lidardb_las::{lazlite, Compression, LasHeader, PointRecord};
use lidardb_sfc::{Curve, Quantizer};

use crate::error::BaselineError;

/// Default points per block (pgpointcloud patches are typically ~400–600).
pub const DEFAULT_BLOCK_CAPACITY: usize = 512;

/// Per-query work accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockQueryStats {
    /// Blocks in the store.
    pub blocks_total: usize,
    /// Blocks whose bbox intersected the window.
    pub blocks_matched: usize,
    /// Points decompressed.
    pub points_decoded: usize,
    /// Result cardinality.
    pub results: usize,
}

#[derive(Debug, Clone)]
struct Block {
    env: Envelope,
    count: usize,
    payload: Vec<u8>,
}

/// A block-organised point-cloud store.
#[derive(Debug)]
pub struct BlockStore {
    header: LasHeader,
    blocks: Vec<Block>,
    capacity: usize,
    curve: Curve,
}

impl BlockStore {
    /// Build from records: curve-sort a copy, cut into blocks of
    /// `capacity`, compress each block's payload.
    pub fn build(
        records: &[PointRecord],
        capacity: usize,
        curve: Curve,
    ) -> Result<Self, BaselineError> {
        if capacity == 0 {
            return Err(BaselineError::Invalid("block capacity must be > 0".into()));
        }
        // Derive the quantisation header from the data bbox.
        let (min, max) = bbox3(records);
        let header = LasHeader {
            num_points: records.len() as u64,
            min,
            max,
            ..LasHeader::builder()
                .scale(0.001, 0.001, 0.001)
                .offset(min[0], min[1], min[2])
                .compression(Compression::LazLite)
                .build()
        };
        let mut sorted = records.to_vec();
        if !records.is_empty() {
            let q = Quantizer::new(
                min[0],
                min[1],
                max[0].max(min[0] + 1e-9),
                max[1].max(min[1] + 1e-9),
                21,
            );
            // The Hilbert key is ~100 ops; cache it rather than recompute
            // per comparison.
            sorted.sort_by_cached_key(|r| {
                let (cx, cy) = q.cell(r.x, r.y);
                curve.encode(cx, cy)
            });
        }
        let mut blocks = Vec::with_capacity(sorted.len().div_ceil(capacity));
        for chunk in sorted.chunks(capacity) {
            let env = Envelope::of_points(
                chunk
                    .iter()
                    .map(|r| Point::new(r.x, r.y))
                    .collect::<Vec<_>>()
                    .iter(),
            )
            .expect("non-empty chunk");
            blocks.push(Block {
                env,
                count: chunk.len(),
                payload: lazlite::compress(&header, chunk)?,
            });
        }
        Ok(BlockStore {
            header,
            blocks,
            capacity,
            curve,
        })
    }

    /// Build *without* the space-filling-curve sort: blocks are cut in
    /// acquisition order. This is the "no physical reorganisation" ablation
    /// of experiment E8 — per-block bboxes of unsorted data overlap wildly,
    /// so queries match far more blocks.
    pub fn build_unsorted(records: &[PointRecord], capacity: usize) -> Result<Self, BaselineError> {
        if capacity == 0 {
            return Err(BaselineError::Invalid("block capacity must be > 0".into()));
        }
        let (min, max) = bbox3(records);
        let header = LasHeader {
            num_points: records.len() as u64,
            min,
            max,
            ..LasHeader::builder()
                .scale(0.001, 0.001, 0.001)
                .offset(min[0], min[1], min[2])
                .compression(Compression::LazLite)
                .build()
        };
        let mut blocks = Vec::with_capacity(records.len().div_ceil(capacity));
        for chunk in records.chunks(capacity) {
            let env = Envelope::of_points(
                chunk
                    .iter()
                    .map(|r| Point::new(r.x, r.y))
                    .collect::<Vec<_>>()
                    .iter(),
            )
            .expect("non-empty chunk");
            blocks.push(Block {
                env,
                count: chunk.len(),
                payload: lazlite::compress(&header, chunk)?,
            });
        }
        Ok(BlockStore {
            header,
            blocks,
            capacity,
            curve: Curve::Morton, // nominal; no sort was applied
        })
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of stored points.
    pub fn num_points(&self) -> usize {
        self.blocks.iter().map(|b| b.count).sum()
    }

    /// Block capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The ordering curve.
    pub fn curve(&self) -> Curve {
        self.curve
    }

    /// Compressed payload bytes plus the block table (storage accounting
    /// for E2).
    pub fn storage_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.payload.len() + std::mem::size_of::<Envelope>() + 8)
            .sum()
    }

    /// Rectangular selection.
    pub fn query_bbox(
        &self,
        window: &Envelope,
    ) -> Result<(Vec<PointRecord>, BlockQueryStats), BaselineError> {
        self.query_filtered(window, |_| true)
    }

    /// Geometry selection: block bbox filter, then exact per-point test.
    pub fn query_geometry(
        &self,
        g: &Geometry,
    ) -> Result<(Vec<PointRecord>, BlockQueryStats), BaselineError> {
        let Some(env) = g.envelope() else {
            return Ok((
                Vec::new(),
                BlockQueryStats {
                    blocks_total: self.blocks.len(),
                    ..BlockQueryStats::default()
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
    ) -> Result<(Vec<PointRecord>, BlockQueryStats), BaselineError> {
        let mut stats = BlockQueryStats {
            blocks_total: self.blocks.len(),
            ..BlockQueryStats::default()
        };
        let mut out = Vec::new();
        for b in &self.blocks {
            if !b.env.intersects(window) {
                continue;
            }
            stats.blocks_matched += 1;
            let recs = lazlite::decompress(&self.header, &b.payload)?;
            stats.points_decoded += recs.len();
            out.extend(
                recs.into_iter()
                    .filter(|r| window.contains(&Point::new(r.x, r.y)) && extra(r)),
            );
        }
        stats.results = out.len();
        Ok((out, stats))
    }
}

fn bbox3(records: &[PointRecord]) -> ([f64; 3], [f64; 3]) {
    let mut min = [0.0f64; 3];
    let mut max = [0.0f64; 3];
    if let Some(first) = records.first() {
        min = [first.x, first.y, first.z];
        max = min;
        for r in records {
            for (i, v) in [r.x, r.y, r.z].into_iter().enumerate() {
                min[i] = min[i].min(v);
                max[i] = max[i].max(v);
            }
        }
    }
    (min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_records(n: usize) -> Vec<PointRecord> {
        (0..n)
            .flat_map(|y| {
                (0..n).map(move |x| PointRecord {
                    x: x as f64,
                    y: y as f64,
                    z: 3.0,
                    classification: 2,
                    intensity: 77,
                    ..Default::default()
                })
            })
            .collect()
    }

    fn env(a: f64, b: f64, c: f64, d: f64) -> Envelope {
        Envelope::new(a, b, c, d).unwrap()
    }

    #[test]
    fn build_and_query() {
        let recs = grid_records(100); // 10k points
        let bs = BlockStore::build(&recs, 512, Curve::Hilbert).unwrap();
        assert_eq!(bs.num_points(), 10_000);
        assert_eq!(bs.num_blocks(), 10_000usize.div_ceil(512));
        let (hits, stats) = bs.query_bbox(&env(10.0, 10.0, 20.0, 20.0)).unwrap();
        assert_eq!(hits.len(), 11 * 11);
        assert!(
            stats.blocks_matched < stats.blocks_total,
            "curve blocking must prune: {stats:?}"
        );
        assert!(stats.points_decoded < 10_000 / 2);
    }

    #[test]
    fn hilbert_prunes_at_least_as_well_as_unsorted() {
        // Compare against capacity-order blocking (no curve): emulate by
        // Morton on a degenerate quantiser? Instead compare Hilbert vs
        // Morton both prune, and both far better than one giant block.
        let recs = grid_records(64);
        let window = env(5.0, 5.0, 12.0, 12.0);
        for curve in [Curve::Morton, Curve::Hilbert] {
            let bs = BlockStore::build(&recs, 256, curve).unwrap();
            let (_, stats) = bs.query_bbox(&window).unwrap();
            assert!(
                stats.blocks_matched * 4 <= stats.blocks_total,
                "{curve:?}: {stats:?}"
            );
        }
    }

    #[test]
    fn values_roundtrip_through_blocks() {
        let recs = grid_records(20);
        let bs = BlockStore::build(&recs, 64, Curve::Morton).unwrap();
        let (hits, _) = bs.query_bbox(&env(3.0, 7.0, 3.0, 7.0)).unwrap();
        assert_eq!(hits.len(), 1);
        let r = &hits[0];
        assert!((r.x - 3.0).abs() < 0.001 && (r.y - 7.0).abs() < 0.001);
        assert_eq!(r.intensity, 77);
        assert_eq!(r.classification, 2);
    }

    #[test]
    fn geometry_query() {
        let recs = grid_records(50);
        let bs = BlockStore::build(&recs, 256, Curve::Hilbert).unwrap();
        let tri = Geometry::Polygon(
            lidardb_geom::Polygon::from_exterior(vec![
                Point::new(0.0, 0.0),
                Point::new(30.0, 0.0),
                Point::new(0.0, 30.0),
            ])
            .unwrap(),
        );
        let (hits, _) = bs.query_geometry(&tri).unwrap();
        for r in &hits {
            assert!(r.x + r.y <= 30.0 + 1e-6);
        }
        assert!(!hits.is_empty());
    }

    #[test]
    fn storage_is_compressed() {
        let recs = grid_records(100);
        let bs = BlockStore::build(&recs, 512, Curve::Hilbert).unwrap();
        let raw = recs.len() * lidardb_las::record::RECORD_LEN;
        assert!(
            bs.storage_bytes() < raw,
            "blocks {} should be smaller than raw {}",
            bs.storage_bytes(),
            raw
        );
    }

    #[test]
    fn empty_store_and_bad_capacity() {
        let bs = BlockStore::build(&[], 64, Curve::Morton).unwrap();
        assert_eq!(bs.num_blocks(), 0);
        let (hits, stats) = bs.query_bbox(&env(0.0, 0.0, 1.0, 1.0)).unwrap();
        assert!(hits.is_empty());
        assert_eq!(stats.blocks_total, 0);
        assert!(BlockStore::build(&[], 0, Curve::Morton).is_err());
    }
}
