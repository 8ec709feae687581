//! Quantisation of floating-point coordinates onto the curve lattice.
//!
//! Space-filling curves operate on integer lattices; LIDAR coordinates are
//! metric doubles. The [`Quantizer`] maps an axis-aligned world window onto
//! the `2^bits × 2^bits` lattice, clamping out-of-window points to the edge
//! (matching how `lassort` handles points outside the declared header bbox).

/// Affine quantiser from a world rectangle to a `2^bits` square lattice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    min_x: f64,
    min_y: f64,
    scale_x: f64,
    scale_y: f64,
    max_cell: u32,
}

impl Quantizer {
    /// Build a quantiser for the world window `[min_x, max_x] × [min_y,
    /// max_y]` at `bits` bits of resolution per axis.
    ///
    /// # Panics
    /// Panics on an empty/inverted window, non-finite bounds, or
    /// `bits` outside `1..=32`.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64, bits: u32) -> Self {
        assert!((1..=32).contains(&bits), "bits must be in 1..=32");
        assert!(
            min_x.is_finite() && min_y.is_finite() && max_x.is_finite() && max_y.is_finite(),
            "window must be finite"
        );
        assert!(max_x > min_x && max_y > min_y, "window must be non-empty");
        let cells = (1u64 << bits) as f64;
        Quantizer {
            min_x,
            min_y,
            scale_x: cells / (max_x - min_x),
            scale_y: cells / (max_y - min_y),
            max_cell: ((1u64 << bits) - 1) as u32,
        }
    }

    /// Quantise a world point to lattice coordinates, clamping to the
    /// window.
    #[inline]
    pub fn cell(&self, x: f64, y: f64) -> (u32, u32) {
        (
            self.axis(x, self.min_x, self.scale_x),
            self.axis(y, self.min_y, self.scale_y),
        )
    }

    #[inline]
    fn axis(&self, v: f64, min: f64, scale: f64) -> u32 {
        let c = (v - min) * scale;
        // NaN and <= 0 both clamp to the low edge.
        if c.is_nan() || c <= 0.0 {
            0
        } else if c >= self.max_cell as f64 {
            self.max_cell
        } else {
            c as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_window_corners() {
        let q = Quantizer::new(0.0, 0.0, 100.0, 200.0, 8);
        assert_eq!(q.cell(0.0, 0.0), (0, 0));
        assert_eq!(q.cell(100.0, 200.0), (255, 255));
        assert_eq!(q.cell(50.0, 100.0), (128, 128));
        assert_eq!(q.max_cell, 255);
    }

    #[test]
    fn clamps_outside_window() {
        let q = Quantizer::new(0.0, 0.0, 10.0, 10.0, 4);
        assert_eq!(q.cell(-5.0, 20.0), (0, 15));
        assert_eq!(q.cell(1e9, -1e9), (15, 0));
        assert_eq!(q.cell(f64::NAN, 5.0).0, 0);
    }

    #[test]
    fn monotone_within_window() {
        let q = Quantizer::new(-10.0, -10.0, 10.0, 10.0, 16);
        let mut prev = 0;
        for i in 0..100 {
            let x = -10.0 + 20.0 * (i as f64) / 100.0;
            let (cx, _) = q.cell(x, 0.0);
            assert!(cx >= prev, "quantisation must be monotone");
            prev = cx;
        }
    }

    #[test]
    fn full_32_bits() {
        let q = Quantizer::new(0.0, 0.0, 1.0, 1.0, 32);
        assert_eq!(q.cell(1.0, 1.0), (u32::MAX, u32::MAX));
        assert_eq!(q.cell(0.0, 0.0), (0, 0));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn inverted_window_panics() {
        Quantizer::new(10.0, 0.0, 0.0, 10.0, 8);
    }
}
