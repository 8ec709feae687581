//! The software rasteriser.

use std::io::Write;
use std::path::Path;

use lidardb_geom::{Envelope, Point, Polygon};

use crate::colormap::Rgb;

/// An RGB image addressed in world coordinates.
#[derive(Debug, Clone)]
pub struct Raster {
    width: usize,
    height: usize,
    world: Envelope,
    pixels: Vec<Rgb>,
}

impl Raster {
    /// Create a raster of `width × height` pixels covering `world`, filled
    /// with `background`.
    ///
    /// # Panics
    /// Panics on a zero dimension.
    pub fn new(width: usize, height: usize, world: Envelope, background: Rgb) -> Self {
        assert!(width > 0 && height > 0, "raster must be non-empty");
        Raster {
            width,
            height,
            world,
            pixels: vec![background; width * height],
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// World window.
    pub fn world(&self) -> &Envelope {
        &self.world
    }

    /// Map a world coordinate to a pixel, `None` outside the window.
    /// Y is flipped: world north is image top.
    pub fn to_pixel(&self, x: f64, y: f64) -> Option<(usize, usize)> {
        if !self.world.contains(&Point::new(x, y)) {
            return None;
        }
        let px = ((x - self.world.min_x) / self.world.width().max(f64::MIN_POSITIVE)
            * self.width as f64) as usize;
        let py = ((self.world.max_y - y) / self.world.height().max(f64::MIN_POSITIVE)
            * self.height as f64) as usize;
        Some((px.min(self.width - 1), py.min(self.height - 1)))
    }

    /// Read a pixel.
    pub fn get(&self, px: usize, py: usize) -> Rgb {
        self.pixels[py * self.width + px]
    }

    /// Write a pixel (ignored out of range).
    pub fn set(&mut self, px: usize, py: usize, c: Rgb) {
        if px < self.width && py < self.height {
            self.pixels[py * self.width + px] = c;
        }
    }

    /// Splat a world point (1 pixel).
    pub fn plot(&mut self, x: f64, y: f64, c: Rgb) {
        if let Some((px, py)) = self.to_pixel(x, y) {
            self.set(px, py, c);
        }
    }

    /// Draw a world-coordinate line segment (Bresenham over pixels).
    pub fn line(&mut self, a: Point, b: Point, c: Rgb, thickness: usize) {
        // Clip by sampling along the segment at sub-pixel steps: simple and
        // robust for map rendering purposes.
        let steps = {
            let dx = (b.x - a.x) / self.world.width() * self.width as f64;
            let dy = (b.y - a.y) / self.world.height() * self.height as f64;
            (dx.abs().max(dy.abs()).ceil() as usize).max(1) * 2
        };
        for i in 0..=steps {
            let t = i as f64 / steps as f64;
            let x = a.x + (b.x - a.x) * t;
            let y = a.y + (b.y - a.y) * t;
            if let Some((px, py)) = self.to_pixel(x, y) {
                let r = thickness / 2;
                for oy in 0..=(r * 2) {
                    for ox in 0..=(r * 2) {
                        let qx = px as i64 + ox as i64 - r as i64;
                        let qy = py as i64 + oy as i64 - r as i64;
                        if qx >= 0 && qy >= 0 {
                            self.set(qx as usize, qy as usize, c);
                        }
                    }
                }
            }
        }
    }

    /// Fill a polygon (even-odd, per pixel-row scanline).
    pub fn fill_polygon(&mut self, poly: &Polygon, c: Rgb) {
        let env = poly.envelope();
        let Some((px0, py0)) = self.to_pixel(
            env.min_x.max(self.world.min_x),
            env.max_y.min(self.world.max_y),
        ) else {
            return;
        };
        let Some((px1, py1)) = self.to_pixel(
            env.max_x.min(self.world.max_x),
            env.min_y.max(self.world.min_y),
        ) else {
            return;
        };
        for py in py0..=py1.min(self.height - 1) {
            let wy =
                self.world.max_y - (py as f64 + 0.5) / self.height as f64 * self.world.height();
            for px in px0..=px1.min(self.width - 1) {
                let wx =
                    self.world.min_x + (px as f64 + 0.5) / self.width as f64 * self.world.width();
                if poly.contains_point(&Point::new(wx, wy)) {
                    self.set(px, py, c);
                }
            }
        }
    }

    /// Encode as a binary PPM (P6) byte stream.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.pixels.len() * 3 + 32);
        out.extend_from_slice(format!("P6\n{} {}\n255\n", self.width, self.height).as_bytes());
        for &(r, g, b) in &self.pixels {
            out.push(r);
            out.push(g);
            out.push(b);
        }
        out
    }

    /// Write as a PPM file.
    pub fn write_ppm(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(&self.to_ppm())?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> Envelope {
        Envelope::new(0.0, 0.0, 100.0, 100.0).unwrap()
    }

    #[test]
    fn pixel_mapping_flips_y() {
        let r = Raster::new(100, 100, world(), (0, 0, 0));
        assert_eq!(
            r.to_pixel(0.0, 100.0),
            Some((0, 0)),
            "NW corner is top-left"
        );
        assert_eq!(r.to_pixel(100.0, 0.0), Some((99, 99)), "SE is bottom-right");
        assert_eq!(r.to_pixel(150.0, 50.0), None);
    }

    #[test]
    fn plot_and_get() {
        let mut r = Raster::new(10, 10, world(), (0, 0, 0));
        r.plot(55.0, 55.0, (255, 0, 0));
        let (px, py) = r.to_pixel(55.0, 55.0).unwrap();
        assert_eq!(r.get(px, py), (255, 0, 0));
        // Out-of-window plot is a no-op.
        r.plot(-5.0, 200.0, (1, 2, 3));
    }

    #[test]
    fn line_touches_both_endpoints() {
        let mut r = Raster::new(50, 50, world(), (0, 0, 0));
        r.line(
            Point::new(10.0, 10.0),
            Point::new(90.0, 80.0),
            (0, 255, 0),
            1,
        );
        let a = r.to_pixel(10.0, 10.0).unwrap();
        let b = r.to_pixel(90.0, 80.0).unwrap();
        assert_eq!(r.get(a.0, a.1), (0, 255, 0));
        assert_eq!(r.get(b.0, b.1), (0, 255, 0));
    }

    #[test]
    fn polygon_fill_inside_only() {
        let mut r = Raster::new(100, 100, world(), (0, 0, 0));
        let poly = Polygon::from_exterior(vec![
            Point::new(20.0, 20.0),
            Point::new(80.0, 20.0),
            Point::new(80.0, 80.0),
            Point::new(20.0, 80.0),
        ])
        .unwrap();
        r.fill_polygon(&poly, (0, 0, 255));
        let inside = r.to_pixel(50.0, 50.0).unwrap();
        let outside = r.to_pixel(5.0, 5.0).unwrap();
        assert_eq!(r.get(inside.0, inside.1), (0, 0, 255));
        assert_eq!(r.get(outside.0, outside.1), (0, 0, 0));
    }

    #[test]
    fn ppm_header_and_size() {
        let r = Raster::new(4, 3, world(), (10, 20, 30));
        let ppm = r.to_ppm();
        assert!(ppm.starts_with(b"P6\n4 3\n255\n"));
        assert_eq!(ppm.len(), 11 + 4 * 3 * 3);
        assert_eq!(&ppm[11..14], &[10, 20, 30]);
    }

    #[test]
    fn write_ppm_to_disk() {
        let dir = lidardb_test_support::ScratchDir::new("viz_test");
        let path = dir.join("t.ppm");
        Raster::new(2, 2, world(), (0, 0, 0))
            .write_ppm(&path)
            .unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() > 10);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_rejected() {
        Raster::new(0, 5, world(), (0, 0, 0));
    }
}
