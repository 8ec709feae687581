//! Immutable segment/tile metadata: per-tile key ranges and zone maps.
//!
//! A *tile* is a contiguous, SFC-ordered slice of an immutable segment:
//! `[row_start, row_end)` rows of the sealed table, covering the SFC key
//! range `[key_lo, key_hi]`, with a per-column min/max *zone map* taken at
//! seal time. Zone maps are the per-chunk lightweight index of Spatial
//! Parquet applied to our flat table: because the rows are Hilbert/Morton
//! clustered, the x/y zone maps are tight and pruning is effective — the
//! exact failure mode per-block zonemaps show on unclustered data (E7, the
//! harness's comparator) goes away.
//!
//! Pruning is **conservative on the `f64` domain**: zone bounds are the
//! min/max of each column viewed through `Column::iter_f64`, the same
//! domain the imprint probes use, so any row an imprint probe could accept
//! lives in a tile the zone maps keep. A column missing from a tile's zone
//! map can never prune that tile.

/// Zone-map entry: the closed `f64` range one column spans within a tile.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneEntry {
    /// Column name.
    pub column: String,
    /// Minimum value (on the `f64` domain).
    pub min: f64,
    /// Maximum value (on the `f64` domain).
    pub max: f64,
}

/// Metadata of one tile of a sealed segment.
#[derive(Debug, Clone, PartialEq)]
pub struct TileMeta {
    /// Tile index within the segment (also its directory suffix on disk).
    pub id: usize,
    /// First global row of the tile.
    pub row_start: usize,
    /// One past the last global row of the tile.
    pub row_end: usize,
    /// Smallest SFC key of any member row.
    pub key_lo: u64,
    /// Largest SFC key of any member row.
    pub key_hi: u64,
    /// Per-column zone maps, in schema order.
    pub zones: Vec<ZoneEntry>,
}

impl TileMeta {
    /// Rows in the tile.
    pub fn rows(&self) -> usize {
        self.row_end - self.row_start
    }

    /// The zone range of a column, if recorded.
    pub fn zone(&self, column: &str) -> Option<(f64, f64)> {
        self.zones
            .iter()
            .find(|z| z.column == column)
            .map(|z| (z.min, z.max))
    }

    /// Whether the closed query range `[lo, hi]` can contain any row of
    /// this tile on `column`. Missing zone ⇒ `true` (cannot prune); NaN
    /// bounds compare false on both sides, which also keeps the tile.
    pub fn overlaps(&self, column: &str, lo: f64, hi: f64) -> bool {
        match self.zone(column) {
            Some((zmin, zmax)) => !(hi < zmin || lo > zmax),
            None => true,
        }
    }
}

/// The ordered tile list of one sealed segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TileSet {
    /// Tiles in row (= SFC key) order.
    pub tiles: Vec<TileMeta>,
}

impl TileSet {
    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.tiles.len()
    }

    /// Whether the set has no tiles.
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }

    /// Total rows across tiles.
    pub fn total_rows(&self) -> usize {
        self.tiles.last().map_or(0, |t| t.row_end)
    }

    /// Indexes of tiles that survive zone-map pruning against a
    /// conjunction of closed column ranges. An empty predicate list keeps
    /// every tile.
    pub fn prune(&self, preds: &[(&str, f64, f64)]) -> Vec<usize> {
        self.tiles
            .iter()
            .enumerate()
            .filter(|(_, t)| preds.iter().all(|&(c, lo, hi)| t.overlaps(c, lo, hi)))
            .map(|(i, _)| i)
            .collect()
    }

    /// The tile containing a global row, by binary search over the
    /// contiguous row ranges.
    pub fn tile_for_row(&self, row: usize) -> Option<usize> {
        if row >= self.total_rows() {
            return None;
        }
        let i = self.tiles.partition_point(|t| t.row_end <= row);
        (i < self.tiles.len()).then_some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(id: usize, rows: (usize, usize), x: (f64, f64), z: (f64, f64)) -> TileMeta {
        TileMeta {
            id,
            row_start: rows.0,
            row_end: rows.1,
            key_lo: id as u64 * 100,
            key_hi: id as u64 * 100 + 99,
            zones: vec![
                ZoneEntry {
                    column: "x".into(),
                    min: x.0,
                    max: x.1,
                },
                ZoneEntry {
                    column: "z".into(),
                    min: z.0,
                    max: z.1,
                },
            ],
        }
    }

    fn set() -> TileSet {
        TileSet {
            tiles: vec![
                tile(0, (0, 100), (0.0, 10.0), (0.0, 5.0)),
                tile(1, (100, 250), (10.0, 20.0), (2.0, 9.0)),
                tile(2, (250, 300), (20.0, 30.0), (8.0, 12.0)),
            ],
        }
    }

    #[test]
    fn prune_is_conservative_and_exact_on_edges() {
        let s = set();
        assert_eq!(s.prune(&[]), vec![0, 1, 2], "no predicate keeps all");
        assert_eq!(s.prune(&[("x", 12.0, 18.0)]), vec![1]);
        // Closed-range edges keep the touching tile.
        assert_eq!(s.prune(&[("x", 10.0, 10.0)]), vec![0, 1]);
        // Conjunction across columns.
        assert_eq!(s.prune(&[("x", 0.0, 30.0), ("z", 10.0, 20.0)]), vec![2]);
        // Unknown column cannot prune.
        assert_eq!(s.prune(&[("intensity", 1e9, 2e9)]), vec![0, 1, 2]);
        // Disjoint range prunes everything.
        assert!(s.prune(&[("x", 100.0, 200.0)]).is_empty());
        // NaN bounds keep every tile (conservative).
        assert_eq!(s.prune(&[("x", f64::NAN, f64::NAN)]), vec![0, 1, 2]);
    }

    #[test]
    fn tile_for_row_binary_searches_row_ranges() {
        let s = set();
        assert_eq!(s.tile_for_row(0), Some(0));
        assert_eq!(s.tile_for_row(99), Some(0));
        assert_eq!(s.tile_for_row(100), Some(1));
        assert_eq!(s.tile_for_row(299), Some(2));
        assert_eq!(s.tile_for_row(300), None);
        assert_eq!(s.total_rows(), 300);
        assert_eq!(s.tiles[1].rows(), 150);
    }

    #[test]
    fn zone_lookup_and_overlap() {
        let t = tile(0, (0, 10), (-5.0, 5.0), (0.0, 1.0));
        assert_eq!(t.zone("x"), Some((-5.0, 5.0)));
        assert_eq!(t.zone("nope"), None);
        assert!(t.overlaps("x", 5.0, 9.0));
        assert!(!t.overlaps("x", 5.1, 9.0));
        assert!(t.overlaps("nope", 1e12, 1e13));
    }
}
