//! Well-Known Text (WKT) reading and writing.
//!
//! The textual geometry interchange format of the OGC Simple Features
//! standard — what `ST_GeomFromText` accepts in the demo's SQL queries.
//! Supported: `POINT`, `MULTIPOINT`, `LINESTRING`, `POLYGON`,
//! `MULTIPOLYGON`, each with the `EMPTY` keyword where meaningful.

use std::fmt::Write as _;

use crate::error::GeomError;
use crate::geometry::{Geometry, LineString, MultiPoint, MultiPolygon};
use crate::polygon::{Polygon, Ring};
use crate::Point;

/// Parse a WKT string into a [`Geometry`].
pub fn parse_wkt(input: &str) -> Result<Geometry, GeomError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    let g = p.parse_geometry()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing input"));
    }
    Ok(g)
}

/// Serialise a [`Geometry`] to WKT.
pub fn to_wkt(g: &Geometry) -> String {
    let mut out = String::new();
    match g {
        Geometry::Point(p) => {
            let _ = write!(out, "POINT ({} {})", fmt_f(p.x), fmt_f(p.y));
        }
        Geometry::MultiPoint(mp) => {
            if mp.points().is_empty() {
                out.push_str("MULTIPOINT EMPTY");
            } else {
                out.push_str("MULTIPOINT (");
                for (i, p) in mp.points().iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "({} {})", fmt_f(p.x), fmt_f(p.y));
                }
                out.push(')');
            }
        }
        Geometry::LineString(ls) => {
            out.push_str("LINESTRING ");
            write_coord_list(&mut out, ls.vertices());
        }
        Geometry::Polygon(pg) => {
            out.push_str("POLYGON ");
            write_polygon_body(&mut out, pg);
        }
        Geometry::MultiPolygon(mp) => {
            if mp.polygons().is_empty() {
                out.push_str("MULTIPOLYGON EMPTY");
            } else {
                out.push_str("MULTIPOLYGON (");
                for (i, pg) in mp.polygons().iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_polygon_body(&mut out, pg);
                }
                out.push(')');
            }
        }
    }
    out
}

fn fmt_f(v: f64) -> String {
    // Shortest round-trippable representation Rust offers.
    format!("{v}")
}

fn write_coord_list(out: &mut String, pts: &[Point]) {
    out.push('(');
    for (i, p) in pts.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{} {}", fmt_f(p.x), fmt_f(p.y));
    }
    out.push(')');
}

fn write_polygon_body(out: &mut String, pg: &Polygon) {
    out.push('(');
    let close = |out: &mut String, ring: &Ring| {
        let mut pts = ring.vertices().to_vec();
        pts.push(pts[0]); // WKT rings repeat the first vertex
        write_coord_list(out, &pts);
    };
    close(out, pg.exterior());
    for h in pg.holes() {
        out.push_str(", ");
        close(out, h);
    }
    out.push(')');
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &str) -> GeomError {
        GeomError::WktParse {
            reason: reason.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, ch: u8) -> Result<(), GeomError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&ch) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", ch as char)))
        }
    }

    fn peek_is(&mut self, ch: u8) -> bool {
        self.skip_ws();
        self.bytes.get(self.pos) == Some(&ch)
    }

    fn keyword(&mut self) -> String {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_alphabetic())
        {
            self.pos += 1;
        }
        self.input[start..self.pos].to_ascii_uppercase()
    }

    fn try_empty(&mut self) -> bool {
        self.skip_ws();
        let rest = &self.input[self.pos..];
        if rest.len() >= 5 && rest[..5].eq_ignore_ascii_case("EMPTY") {
            self.pos += 5;
            true
        } else {
            false
        }
    }

    fn number(&mut self) -> Result<f64, GeomError> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'+' | b'-' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        self.input[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.err("expected number"))
    }

    fn coord(&mut self) -> Result<Point, GeomError> {
        let x = self.number()?;
        let y = self.number()?;
        let p = Point::new(x, y);
        if !p.is_finite() {
            return Err(GeomError::NonFiniteCoordinate);
        }
        Ok(p)
    }

    /// `( x y, x y, ... )`
    fn coord_list(&mut self) -> Result<Vec<Point>, GeomError> {
        self.eat(b'(')?;
        let mut pts = vec![self.coord()?];
        while self.peek_is(b',') {
            self.pos += 1;
            pts.push(self.coord()?);
        }
        self.eat(b')')?;
        Ok(pts)
    }

    /// `( (ring), (ring), ... )`
    fn polygon_body(&mut self) -> Result<Polygon, GeomError> {
        self.eat(b'(')?;
        let exterior = Ring::new(self.coord_list()?)?;
        let mut holes = Vec::new();
        while self.peek_is(b',') {
            self.pos += 1;
            holes.push(Ring::new(self.coord_list()?)?);
        }
        self.eat(b')')?;
        Ok(Polygon::new(exterior, holes))
    }

    fn parse_geometry(&mut self) -> Result<Geometry, GeomError> {
        match self.keyword().as_str() {
            "POINT" => {
                if self.try_empty() {
                    return Err(self.err("POINT EMPTY is not representable"));
                }
                self.eat(b'(')?;
                let p = self.coord()?;
                self.eat(b')')?;
                Ok(Geometry::Point(p))
            }
            "MULTIPOINT" => {
                if self.try_empty() {
                    return Ok(Geometry::MultiPoint(MultiPoint::new(vec![])?));
                }
                self.eat(b'(')?;
                let mut pts = vec![self.multipoint_member()?];
                while self.peek_is(b',') {
                    self.pos += 1;
                    pts.push(self.multipoint_member()?);
                }
                self.eat(b')')?;
                Ok(Geometry::MultiPoint(MultiPoint::new(pts)?))
            }
            "LINESTRING" => {
                if self.try_empty() {
                    return Err(self.err("LINESTRING EMPTY is not representable"));
                }
                Ok(Geometry::LineString(LineString::new(self.coord_list()?)?))
            }
            "POLYGON" => {
                if self.try_empty() {
                    return Err(self.err("POLYGON EMPTY is not representable"));
                }
                Ok(Geometry::Polygon(self.polygon_body()?))
            }
            "MULTIPOLYGON" => {
                if self.try_empty() {
                    return Ok(Geometry::MultiPolygon(MultiPolygon::new(vec![])));
                }
                self.eat(b'(')?;
                let mut polys = vec![self.polygon_body()?];
                while self.peek_is(b',') {
                    self.pos += 1;
                    polys.push(self.polygon_body()?);
                }
                self.eat(b')')?;
                Ok(Geometry::MultiPolygon(MultiPolygon::new(polys)))
            }
            other => Err(self.err(&format!("unknown geometry type '{other}'"))),
        }
    }

    /// MULTIPOINT members may be parenthesised `(x y)` or bare `x y`.
    fn multipoint_member(&mut self) -> Result<Point, GeomError> {
        if self.peek_is(b'(') {
            self.pos += 1;
            let p = self.coord()?;
            self.eat(b')')?;
            Ok(p)
        } else {
            self.coord()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(wkt: &str) {
        let g = parse_wkt(wkt).unwrap();
        let out = to_wkt(&g);
        let g2 = parse_wkt(&out).unwrap();
        assert_eq!(g, g2, "roundtrip of {wkt} via {out}");
    }

    #[test]
    fn parse_point() {
        let g = parse_wkt("POINT (30 10)").unwrap();
        assert_eq!(g, Geometry::Point(Point::new(30.0, 10.0)));
        let g = parse_wkt("point(-1.5e2 +0.25)").unwrap();
        assert_eq!(g, Geometry::Point(Point::new(-150.0, 0.25)));
    }

    #[test]
    fn parse_linestring() {
        let g = parse_wkt("LINESTRING (30 10, 10 30, 40 40)").unwrap();
        match g {
            Geometry::LineString(ls) => assert_eq!(ls.vertices().len(), 3),
            other => panic!("wrong type {other:?}"),
        }
    }

    #[test]
    fn parse_polygon_with_hole() {
        let g = parse_wkt(
            "POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))",
        )
        .unwrap();
        match &g {
            Geometry::Polygon(p) => {
                assert_eq!(p.exterior().vertices().len(), 4);
                assert_eq!(p.holes().len(), 1);
                assert_eq!(p.holes()[0].vertices().len(), 3);
            }
            other => panic!("wrong type {other:?}"),
        }
    }

    #[test]
    fn parse_multipolygon() {
        let g = parse_wkt(
            "MULTIPOLYGON (((30 20, 45 40, 10 40, 30 20)), ((15 5, 40 10, 10 20, 5 10, 15 5)))",
        )
        .unwrap();
        match &g {
            Geometry::MultiPolygon(mp) => assert_eq!(mp.polygons().len(), 2),
            other => panic!("wrong type {other:?}"),
        }
    }

    #[test]
    fn parse_multipoint_both_syntaxes() {
        let a = parse_wkt("MULTIPOINT ((10 40), (40 30))").unwrap();
        let b = parse_wkt("MULTIPOINT (10 40, 40 30)").unwrap();
        assert_eq!(a, b);
        assert_eq!(
            parse_wkt("MULTIPOINT EMPTY").unwrap(),
            Geometry::MultiPoint(MultiPoint::new(vec![]).unwrap())
        );
    }

    #[test]
    fn roundtrips() {
        roundtrip("POINT (1.5 -2.25)");
        roundtrip("LINESTRING (0 0, 1 1, 2 0)");
        roundtrip("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
        roundtrip("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))");
        roundtrip("MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5)))");
        roundtrip("MULTIPOINT ((1 2), (3 4))");
        roundtrip("MULTIPOLYGON EMPTY");
    }

    #[test]
    fn errors_carry_offsets() {
        for bad in [
            "POINT 30 10",
            "POINT (30)",
            "TRIANGLE (0 0, 1 1, 2 2)",
            "POLYGON ((0 0, 1 1))",
            "LINESTRING (0 0)",
            "POINT (1 2) garbage",
            "POINT (nan nan)",
            "",
        ] {
            let e = parse_wkt(bad).unwrap_err();
            match e {
                GeomError::WktParse { .. }
                | GeomError::DegenerateRing(_)
                | GeomError::DegenerateLine(_)
                | GeomError::NonFiniteCoordinate => {}
                other => panic!("unexpected error {other:?} for {bad:?}"),
            }
        }
    }

    #[test]
    fn case_insensitive_keywords() {
        assert!(parse_wkt("pOlYgOn ((0 0, 1 0, 1 1, 0 0))").is_ok());
        assert!(parse_wkt("multipolygon empty").is_ok());
    }
}
