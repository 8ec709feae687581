//! A small SVG map builder for layered vector output.

use std::fmt::Write as _;
use std::path::Path;

use lidardb_geom::{Envelope, LineString, Point, Polygon};

use crate::colormap::Rgb;

fn hex(c: Rgb) -> String {
    format!("#{:02x}{:02x}{:02x}", c.0, c.1, c.2)
}

/// An SVG document over a world window (Y flipped so north is up).
#[derive(Debug, Clone)]
pub struct SvgMap {
    width: f64,
    height: f64,
    world: Envelope,
    body: String,
}

impl SvgMap {
    /// Create a map of `width × height` pixels covering `world`.
    pub fn new(width: usize, height: usize, world: Envelope) -> Self {
        assert!(width > 0 && height > 0, "svg map must be non-empty");
        SvgMap {
            width: width as f64,
            height: height as f64,
            world,
            body: String::new(),
        }
    }

    fn tx(&self, p: &Point) -> (f64, f64) {
        (
            (p.x - self.world.min_x) / self.world.width().max(f64::MIN_POSITIVE) * self.width,
            (self.world.max_y - p.y) / self.world.height().max(f64::MIN_POSITIVE) * self.height,
        )
    }

    fn path_data(&self, pts: &[Point], close: bool) -> String {
        let mut d = String::new();
        for (i, p) in pts.iter().enumerate() {
            let (x, y) = self.tx(p);
            let _ = write!(d, "{}{x:.2} {y:.2} ", if i == 0 { "M" } else { "L" });
        }
        if close {
            d.push('Z');
        }
        d
    }

    /// Add a filled polygon (holes rendered with even-odd fill rule).
    pub fn add_polygon(&mut self, poly: &Polygon, fill: Rgb, opacity: f64) {
        let mut d = self.path_data(poly.exterior().vertices(), true);
        for hole in poly.holes() {
            d.push(' ');
            d.push_str(&self.path_data(hole.vertices(), true));
        }
        let _ = writeln!(
            self.body,
            r#"  <path d="{d}" fill="{}" fill-opacity="{opacity:.2}" fill-rule="evenodd" stroke="none"/>"#,
            hex(fill)
        );
    }

    /// Add a stroked polyline.
    pub fn add_polyline(&mut self, line: &LineString, stroke: Rgb, width: f64) {
        let d = self.path_data(line.vertices(), false);
        let _ = writeln!(
            self.body,
            r#"  <path d="{d}" fill="none" stroke="{}" stroke-width="{width:.2}" stroke-linecap="round"/>"#,
            hex(stroke)
        );
    }

    /// Add a point marker.
    pub fn add_point(&mut self, p: &Point, fill: Rgb, radius: f64) {
        let (x, y) = self.tx(p);
        let _ = writeln!(
            self.body,
            r#"  <circle cx="{x:.2}" cy="{y:.2}" r="{radius:.2}" fill="{}"/>"#,
            hex(fill)
        );
    }

    /// Add a text label.
    pub fn add_label(&mut self, p: &Point, text: &str, size: f64) {
        let (x, y) = self.tx(p);
        let escaped = text
            .replace('&', "&amp;")
            .replace('<', "&lt;")
            .replace('>', "&gt;");
        let _ = writeln!(
            self.body,
            r##"  <text x="{x:.2}" y="{y:.2}" font-size="{size:.1}" font-family="sans-serif" fill="#222222">{escaped}</text>"##
        );
    }

    /// Serialise the document.
    pub fn to_svg(&self) -> String {
        format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" \
             viewBox=\"0 0 {w} {h}\">\n\
             \x20 <rect width=\"{w}\" height=\"{h}\" fill=\"#f8f8f4\"/>\n\
             {body}</svg>\n",
            w = self.width,
            h = self.height,
            body = self.body
        )
    }

    /// Write to a file.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_svg())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> SvgMap {
        SvgMap::new(200, 100, Envelope::new(0.0, 0.0, 200.0, 100.0).unwrap())
    }

    #[test]
    fn header_and_flip() {
        let mut m = map();
        m.add_point(&Point::new(0.0, 100.0), (255, 0, 0), 2.0);
        let svg = m.to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        // North-west world corner is at SVG (0, 0).
        assert!(svg.contains(r#"cx="0.00" cy="0.00""#));
        assert!(svg.contains("#ff0000"));
    }

    #[test]
    fn polygon_with_hole_uses_evenodd() {
        let mut m = map();
        let donut = Polygon::new(
            lidardb_geom::Ring::new(vec![
                Point::new(10.0, 10.0),
                Point::new(90.0, 10.0),
                Point::new(90.0, 90.0),
                Point::new(10.0, 90.0),
            ])
            .unwrap(),
            vec![lidardb_geom::Ring::new(vec![
                Point::new(40.0, 40.0),
                Point::new(60.0, 40.0),
                Point::new(60.0, 60.0),
                Point::new(40.0, 60.0),
            ])
            .unwrap()],
        );
        m.add_polygon(&donut, (0, 128, 0), 0.8);
        let svg = m.to_svg();
        assert!(svg.contains("evenodd"));
        assert_eq!(svg.matches('Z').count(), 2, "two closed rings");
    }

    #[test]
    fn polyline_and_label() {
        let mut m = map();
        m.add_polyline(
            &LineString::new(vec![Point::new(0.0, 0.0), Point::new(200.0, 100.0)]).unwrap(),
            (70, 70, 70),
            2.5,
        );
        m.add_label(&Point::new(5.0, 50.0), "A<&>B", 10.0);
        let svg = m.to_svg();
        assert!(svg.contains("stroke-width=\"2.50\""));
        assert!(svg.contains("A&lt;&amp;&gt;B"), "XML escaping");
    }

    #[test]
    fn write_to_disk() {
        let dir = lidardb_test_support::ScratchDir::new("viz_svg_test");
        let path = dir.join("m.svg");
        map().write(&path).unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().contains("<svg"));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_rejected() {
        SvgMap::new(0, 10, Envelope::new(0.0, 0.0, 1.0, 1.0).unwrap());
    }
}
