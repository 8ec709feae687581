//! # lidardb-sfc — space-filling curves
//!
//! §2.3 of the paper: *"Sorting the point cloud data using space filling
//! curves is a common technique used by spatial DBMS and file-based
//! solutions"* — Oracle sorts SDO_PC blocks along a **Hilbert** curve,
//! LAStools' `lassort` uses a **Z-order (Morton)** sort. This crate provides
//! both curves on 2-D unsigned lattices plus the quantisation and sorting
//! helpers the baselines use, and the locality statistics of experiment E8.

pub mod binning;
pub mod hilbert;
pub mod locality;
pub mod morton;
pub mod quantize;

pub use binning::TileBinning;
pub use hilbert::{hilbert_decode, hilbert_encode};
pub use locality::{curve_locality, LocalityStats};
pub use morton::{morton_decode, morton_encode};
pub use quantize::Quantizer;

/// Which space-filling curve to order data by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Curve {
    /// Z-order / Morton / Lebesgue curve (bit interleaving).
    Morton,
    /// Hilbert curve (rotation-aware, better locality).
    Hilbert,
}

impl Curve {
    /// Encode a 2-D lattice point into a 1-D key along the curve.
    pub fn encode(self, x: u32, y: u32) -> u64 {
        match self {
            Curve::Morton => morton_encode(x, y),
            Curve::Hilbert => hilbert_encode(x, y),
        }
    }

    /// Decode a 1-D key back into the 2-D lattice point.
    pub fn decode(self, key: u64) -> (u32, u32) {
        match self {
            Curve::Morton => morton_decode(key),
            Curve::Hilbert => hilbert_decode(key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_dispatch_roundtrip() {
        for curve in [Curve::Morton, Curve::Hilbert] {
            for &(x, y) in &[(0u32, 0u32), (1, 0), (12345, 67890), (u32::MAX, u32::MAX)] {
                assert_eq!(curve.decode(curve.encode(x, y)), (x, y), "{curve:?}");
            }
        }
    }
}
