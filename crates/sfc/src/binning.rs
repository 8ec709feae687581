//! Partitioning a sorted run of SFC keys into contiguous tiles.
//!
//! The tiled storage layer orders points by their Hilbert/Morton key and
//! cuts the sorted run into tiles of roughly `target_rows` points. The one
//! invariant everything downstream leans on: **equal keys never straddle a
//! tile boundary**. A lattice cell maps to exactly one key, so every point
//! quantising into that cell lands in exactly one tile — which is what
//! makes per-tile zone maps safe to prune with (a point "epsilon inside"
//! a tile's bbox cannot secretly live in the neighbour tile).

/// A partition of the `u64` key space into contiguous half-open tiles.
///
/// Tile `i` covers keys in `[starts[i], starts[i+1])`; the last tile is
/// open-ended. `starts[0]` is always 0 so every key bins somewhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileBinning {
    starts: Vec<u64>,
}

impl TileBinning {
    /// Build a binning that cuts `sorted_keys` into tiles of roughly
    /// `target_rows` keys each. Cuts are only placed *between* distinct
    /// key values, so a run of equal keys always stays in one tile even
    /// when it overshoots the target.
    ///
    /// # Panics
    /// Panics if `sorted_keys` is not ascending or `target_rows == 0`.
    pub fn from_sorted_keys(sorted_keys: &[u64], target_rows: usize) -> TileBinning {
        assert!(target_rows > 0, "target_rows must be positive");
        assert!(
            sorted_keys.windows(2).all(|w| w[0] <= w[1]),
            "keys must be sorted ascending"
        );
        let mut starts = vec![0u64];
        let mut tile_rows = 0usize;
        for i in 0..sorted_keys.len() {
            tile_rows += 1;
            // Cut after this key once the tile is full — but only if the
            // next key differs (equal keys must share a tile).
            if tile_rows >= target_rows {
                if let Some(&next) = sorted_keys.get(i + 1) {
                    if next != sorted_keys[i] {
                        starts.push(next);
                        tile_rows = 0;
                    }
                }
            }
        }
        TileBinning { starts }
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the binning is the trivial single tile.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// First key of tile `i`.
    pub fn start(&self, i: usize) -> u64 {
        self.starts[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile_of(b: &TileBinning, key: u64) -> usize {
        b.starts.partition_point(|&s| s <= key) - 1
    }

    #[test]
    fn trivial_and_empty_inputs_yield_one_tile() {
        let b = TileBinning::from_sorted_keys(&[], 10);
        assert_eq!(b.len(), 1);
        assert_eq!(tile_of(&b, 0), 0);
        assert_eq!(tile_of(&b, u64::MAX), 0);
        let b = TileBinning::from_sorted_keys(&[5, 6, 7], 10);
        assert_eq!(b.len(), 1, "under target: single tile");
    }

    #[test]
    fn cuts_at_target_and_bins_consistently() {
        let keys: Vec<u64> = (0..100).collect();
        let b = TileBinning::from_sorted_keys(&keys, 25);
        assert_eq!(b.len(), 4);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(tile_of(&b, k), i / 25, "key {k}");
        }
        // Boundaries are exact: last key of tile 0 / first key of tile 1.
        assert_eq!(b.start(1), 25);
        assert_eq!(tile_of(&b, 24), 0);
        assert_eq!(tile_of(&b, 25), 1);
    }

    #[test]
    fn equal_keys_never_straddle_a_boundary() {
        // 50 copies of key 7, target 10: one oversized tile, no cut inside
        // the run.
        let mut keys = vec![7u64; 50];
        keys.extend([9, 10, 11]);
        let b = TileBinning::from_sorted_keys(&keys, 10);
        assert_eq!(tile_of(&b, 7), 0);
        assert!(b.start(1) > 7, "cut placed after the equal-key run");
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_keys_panic() {
        TileBinning::from_sorted_keys(&[3, 1], 2);
    }
}
