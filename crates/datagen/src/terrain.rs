//! Deterministic value-noise terrain.
//!
//! A light two-octave lattice value noise gives the gently rolling ground
//! elevation of a Dutch landscape (AHN2 heights mostly within -5..+30 m
//! NAP). Purely hash-based: no tables, reproducible from the seed alone.

/// A seeded, continuous heightfield.
#[derive(Debug, Clone, Copy)]
pub struct Terrain {
    seed: u64,
    /// Base wavelength of the first octave in metres.
    wavelength: f64,
    /// Peak-to-peak amplitude of the first octave in metres.
    amplitude: f64,
}

/// 64-bit mix hash (splitmix64 finaliser).
#[inline]
fn mix(mut v: u64) -> u64 {
    v = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    v = (v ^ (v >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    v = (v ^ (v >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    v ^ (v >> 31)
}

impl Terrain {
    /// Terrain with the default Dutch-polder parameters.
    pub fn new(seed: u64) -> Self {
        Terrain {
            seed,
            wavelength: 700.0,
            amplitude: 18.0,
        }
    }

    /// Terrain with explicit wavelength/amplitude (metres).
    pub fn with_relief(seed: u64, wavelength: f64, amplitude: f64) -> Self {
        assert!(wavelength > 0.0 && amplitude >= 0.0);
        Terrain {
            seed,
            wavelength,
            amplitude,
        }
    }

    /// Uniform [0, 1) value at a lattice corner.
    #[inline]
    fn corner(&self, octave: u32, ix: i64, iy: i64) -> f64 {
        let h = mix(self.seed
            ^ mix(u64::from(octave))
            ^ mix(ix as u64).rotate_left(17)
            ^ mix(iy as u64).rotate_left(43));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One octave of bilinear value noise in [0, 1).
    fn octave(&self, o: u32, x: f64, y: f64, wavelength: f64) -> f64 {
        let fx = x / wavelength;
        let fy = y / wavelength;
        let ix = fx.floor() as i64;
        let iy = fy.floor() as i64;
        let tx = fx - fx.floor();
        let ty = fy - fy.floor();
        // Smoothstep for C1 continuity.
        let sx = tx * tx * (3.0 - 2.0 * tx);
        let sy = ty * ty * (3.0 - 2.0 * ty);
        let v00 = self.corner(o, ix, iy);
        let v10 = self.corner(o, ix + 1, iy);
        let v01 = self.corner(o, ix, iy + 1);
        let v11 = self.corner(o, ix + 1, iy + 1);
        let a = v00 + (v10 - v00) * sx;
        let b = v01 + (v11 - v01) * sx;
        a + (b - a) * sy
    }

    /// Ground elevation in metres at a world position.
    pub fn height(&self, x: f64, y: f64) -> f64 {
        let o1 = self.octave(1, x, y, self.wavelength);
        let o2 = self.octave(2, x, y, self.wavelength / 3.7);
        // Two octaves, second at 30% weight, recentred around ~4 m NAP.
        (o1 * 0.7 + o2 * 0.3) * self.amplitude - self.amplitude * 0.25
    }

    /// Deterministic uniform [0,1) "event" value at a position, for
    /// sprinkling vegetation/noise returns (cell-quantised to 0.5 m).
    pub fn event(&self, channel: u32, x: f64, y: f64) -> f64 {
        let ix = (x * 2.0).floor() as i64;
        let iy = (y * 2.0).floor() as i64;
        self.corner(0x8000_0000 | channel, ix, iy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = Terrain::new(42);
        let b = Terrain::new(42);
        let c = Terrain::new(43);
        assert_eq!(a.height(123.4, 567.8), b.height(123.4, 567.8));
        assert_ne!(a.height(123.4, 567.8), c.height(123.4, 567.8));
    }

    #[test]
    fn heights_in_plausible_band() {
        let t = Terrain::new(7);
        for i in 0..2000 {
            let x = (i % 50) as f64 * 37.3;
            let y = (i / 50) as f64 * 53.1;
            let h = t.height(x, y);
            assert!(
                (-20.0..=40.0).contains(&h),
                "height {h} out of band at ({x},{y})"
            );
        }
    }

    #[test]
    fn continuity() {
        // Neighbouring samples differ by centimetres, not metres.
        let t = Terrain::new(11);
        for i in 0..500 {
            let x = i as f64 * 3.1;
            let d = (t.height(x, 100.0) - t.height(x + 0.1, 100.0)).abs();
            assert!(d < 0.5, "jump of {d} m over 10 cm at x={x}");
        }
    }

    #[test]
    fn variation_exists() {
        let t = Terrain::new(3);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..40 {
            for j in 0..40 {
                let h = t.height(i as f64 * 100.0, j as f64 * 100.0);
                lo = lo.min(h);
                hi = hi.max(h);
            }
        }
        assert!(hi - lo > 3.0, "terrain too flat: {lo}..{hi}");
    }

    #[test]
    fn event_channels_independent() {
        let t = Terrain::new(5);
        let e1 = t.event(1, 10.0, 10.0);
        let e2 = t.event(2, 10.0, 10.0);
        assert!((0.0..1.0).contains(&e1));
        assert_ne!(e1, e2);
        // Quantised: same 0.5 m cell gives same event.
        assert_eq!(t.event(1, 10.0, 10.0), t.event(1, 10.2, 10.2));
    }

    #[test]
    #[should_panic]
    fn invalid_relief_rejected() {
        Terrain::with_relief(1, 0.0, 5.0);
    }
}
