//! The OGC Simple Features function library (plus a few scalar helpers).
//!
//! These are the `ST_*` functions MonetDB's geom module exposes through
//! its "SQL interface to the Simple Features Access standard of the OGC"
//! (§3.3) — the vocabulary of every demo query.

use lidardb_geom::{
    contains_point, distance_point, dwithin_point, intersects, wkt, Envelope, Geometry, Point,
    Polygon,
};

use crate::error::SqlError;
use crate::value::SqlValue;

/// Evaluate a (non-aggregate) function call.
pub fn call(name: &str, args: &[SqlValue]) -> Result<SqlValue, SqlError> {
    let argc = |n: usize| -> Result<(), SqlError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(SqlError::Exec(format!(
                "{name} expects {n} arguments, got {}",
                args.len()
            )))
        }
    };
    match name {
        "ST_POINT" | "ST_MAKEPOINT" => {
            argc(2)?;
            Ok(SqlValue::Geom(Geometry::Point(Point::new(
                args[0].as_f64()?,
                args[1].as_f64()?,
            ))))
        }
        "ST_MAKEENVELOPE" => {
            argc(4)?;
            let env = Envelope::new(
                args[0].as_f64()?,
                args[1].as_f64()?,
                args[2].as_f64()?,
                args[3].as_f64()?,
            )
            .map_err(|e| SqlError::Exec(e.to_string()))?;
            Ok(SqlValue::Geom(Geometry::Polygon(Polygon::rectangle(&env))))
        }
        "ST_GEOMFROMTEXT" => {
            argc(1)?;
            match &args[0] {
                SqlValue::Str(s) => Ok(SqlValue::Geom(
                    wkt::parse_wkt(s).map_err(|e| SqlError::Exec(e.to_string()))?,
                )),
                other => Err(SqlError::Exec(format!(
                    "ST_GeomFromText expects a string, got {}",
                    other.type_name()
                ))),
            }
        }
        "ST_ASTEXT" => {
            argc(1)?;
            Ok(SqlValue::Str(wkt::to_wkt(args[0].as_geom()?)))
        }
        "ST_CONTAINS" => {
            argc(2)?;
            let g = args[0].as_geom()?;
            match args[1].as_geom()? {
                Geometry::Point(p) => Ok(SqlValue::Bool(contains_point(g, p))),
                other => Ok(SqlValue::Bool(intersects_contained(g, other))),
            }
        }
        "ST_WITHIN" => {
            argc(2)?;
            // ST_Within(a, b) == ST_Contains(b, a).
            let g = args[1].as_geom()?;
            match args[0].as_geom()? {
                Geometry::Point(p) => Ok(SqlValue::Bool(contains_point(g, p))),
                other => Ok(SqlValue::Bool(intersects_contained(g, other))),
            }
        }
        "ST_INTERSECTS" => {
            argc(2)?;
            Ok(SqlValue::Bool(intersects(
                args[0].as_geom()?,
                args[1].as_geom()?,
            )))
        }
        "ST_DWITHIN" => {
            argc(3)?;
            let d = args[2].as_f64()?;
            let (a, b) = (args[0].as_geom()?, args[1].as_geom()?);
            // Support the common point-vs-geometry forms exactly; general
            // geometry pairs fall back to vertex distance over the smaller
            // side (adequate for the feature tables of the demo).
            match (a, b) {
                (Geometry::Point(p), g) | (g, Geometry::Point(p)) => {
                    Ok(SqlValue::Bool(dwithin_point(g, p, d)))
                }
                (a, b) => {
                    let within = a.vertices().any(|p| dwithin_point(b, &p, d))
                        || b.vertices().any(|p| dwithin_point(a, &p, d))
                        || intersects(a, b);
                    Ok(SqlValue::Bool(within))
                }
            }
        }
        "ST_DISTANCE" => {
            argc(2)?;
            let (a, b) = (args[0].as_geom()?, args[1].as_geom()?);
            match (a, b) {
                (Geometry::Point(p), g) | (g, Geometry::Point(p)) => {
                    Ok(SqlValue::Float(distance_point(g, p)))
                }
                (a, b) => {
                    if intersects(a, b) {
                        return Ok(SqlValue::Float(0.0));
                    }
                    let d = a
                        .vertices()
                        .map(|p| distance_point(b, &p))
                        .chain(b.vertices().map(|p| distance_point(a, &p)))
                        .fold(f64::INFINITY, f64::min);
                    Ok(SqlValue::Float(d))
                }
            }
        }
        "ST_X" => {
            argc(1)?;
            match args[0].as_geom()? {
                Geometry::Point(p) => Ok(SqlValue::Float(p.x)),
                _ => Err(SqlError::Exec("ST_X expects a point".into())),
            }
        }
        "ST_Y" => {
            argc(1)?;
            match args[0].as_geom()? {
                Geometry::Point(p) => Ok(SqlValue::Float(p.y)),
                _ => Err(SqlError::Exec("ST_Y expects a point".into())),
            }
        }
        "ST_AREA" => {
            argc(1)?;
            Ok(SqlValue::Float(match args[0].as_geom()? {
                Geometry::Polygon(p) => p.area(),
                Geometry::MultiPolygon(mp) => mp.area(),
                _ => 0.0,
            }))
        }
        "ST_LENGTH" => {
            argc(1)?;
            Ok(SqlValue::Float(match args[0].as_geom()? {
                Geometry::LineString(ls) => ls.length(),
                _ => 0.0,
            }))
        }
        "ST_BUFFER" => {
            argc(2)?;
            let g = args[0].as_geom()?;
            let d = args[1].as_f64()?;
            Ok(SqlValue::Geom(
                lidardb_geom::buffer_geometry(g, d).map_err(|e| SqlError::Exec(e.to_string()))?,
            ))
        }
        "ST_ENVELOPE" => {
            argc(1)?;
            let g = args[0].as_geom()?;
            let env = g
                .envelope()
                .ok_or_else(|| SqlError::Exec("ST_Envelope of an empty geometry".into()))?;
            Ok(SqlValue::Geom(Geometry::Polygon(Polygon::rectangle(&env))))
        }
        "ST_NUMPOINTS" => {
            argc(1)?;
            Ok(SqlValue::Int(args[0].as_geom()?.vertices().count() as i64))
        }
        "ABS" => {
            argc(1)?;
            Ok(SqlValue::Float(args[0].as_f64()?.abs()))
        }
        "SQRT" => {
            argc(1)?;
            Ok(SqlValue::Float(args[0].as_f64()?.sqrt()))
        }
        "FLOOR" => {
            argc(1)?;
            Ok(SqlValue::Float(args[0].as_f64()?.floor()))
        }
        "CEIL" | "CEILING" => {
            argc(1)?;
            Ok(SqlValue::Float(args[0].as_f64()?.ceil()))
        }
        "ROUND" => {
            argc(1)?;
            Ok(SqlValue::Float(args[0].as_f64()?.round()))
        }
        other => Err(SqlError::Exec(format!("unknown function {other}"))),
    }
}

/// "Contains" for non-point arguments: every vertex of `inner` contained
/// and the boundaries intersect or inner fully inside — approximated as
/// all vertices contained (exact for convex outers; documented subset).
fn intersects_contained(outer: &Geometry, inner: &Geometry) -> bool {
    let mut any = false;
    for v in inner.vertices() {
        any = true;
        if !contains_point(outer, &v) {
            return false;
        }
    }
    any
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(wkt_str: &str) -> SqlValue {
        call("ST_GEOMFROMTEXT", &[SqlValue::Str(wkt_str.into())]).unwrap()
    }

    #[test]
    fn constructors() {
        let p = call("ST_POINT", &[SqlValue::Float(1.0), SqlValue::Int(2)]).unwrap();
        assert_eq!(p, SqlValue::Geom(Geometry::Point(Point::new(1.0, 2.0))));
        let env = call(
            "ST_MAKEENVELOPE",
            &[
                SqlValue::Float(0.0),
                SqlValue::Float(0.0),
                SqlValue::Float(10.0),
                SqlValue::Float(10.0),
            ],
        )
        .unwrap();
        assert!(matches!(env, SqlValue::Geom(Geometry::Polygon(_))));
        assert!(call("ST_GEOMFROMTEXT", &[SqlValue::Str("NOT WKT".into())]).is_err());
        assert!(call("ST_POINT", &[SqlValue::Float(1.0)]).is_err());
    }

    #[test]
    fn predicates() {
        let region = geom("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
        let inside = call("ST_POINT", &[SqlValue::Float(5.0), SqlValue::Float(5.0)]).unwrap();
        let outside = call("ST_POINT", &[SqlValue::Float(50.0), SqlValue::Float(5.0)]).unwrap();
        assert_eq!(
            call("ST_CONTAINS", &[region.clone(), inside.clone()]).unwrap(),
            SqlValue::Bool(true)
        );
        assert_eq!(
            call("ST_CONTAINS", &[region.clone(), outside.clone()]).unwrap(),
            SqlValue::Bool(false)
        );
        assert_eq!(
            call("ST_WITHIN", &[inside.clone(), region.clone()]).unwrap(),
            SqlValue::Bool(true)
        );
        let line = geom("LINESTRING (-5 5, 15 5)");
        assert_eq!(
            call("ST_INTERSECTS", &[region.clone(), line]).unwrap(),
            SqlValue::Bool(true)
        );
    }

    #[test]
    fn distance_family() {
        let road = geom("LINESTRING (0 0, 100 0)");
        let p = call("ST_POINT", &[SqlValue::Float(50.0), SqlValue::Float(3.0)]).unwrap();
        assert_eq!(
            call("ST_DISTANCE", &[road.clone(), p.clone()]).unwrap(),
            SqlValue::Float(3.0)
        );
        assert_eq!(
            call(
                "ST_DWITHIN",
                &[p.clone(), road.clone(), SqlValue::Float(3.0)]
            )
            .unwrap(),
            SqlValue::Bool(true)
        );
        assert_eq!(
            call("ST_DWITHIN", &[p, road, SqlValue::Float(2.9)]).unwrap(),
            SqlValue::Bool(false)
        );
    }

    #[test]
    fn accessors_and_metrics() {
        let p = call("ST_POINT", &[SqlValue::Float(3.0), SqlValue::Float(4.0)]).unwrap();
        assert_eq!(
            call("ST_X", std::slice::from_ref(&p)).unwrap(),
            SqlValue::Float(3.0)
        );
        assert_eq!(call("ST_Y", &[p]).unwrap(), SqlValue::Float(4.0));
        let sq = geom("POLYGON ((0 0, 4 0, 4 3, 0 3, 0 0))");
        assert_eq!(call("ST_AREA", &[sq]).unwrap(), SqlValue::Float(12.0));
        let line = geom("LINESTRING (0 0, 3 4)");
        assert_eq!(call("ST_LENGTH", &[line]).unwrap(), SqlValue::Float(5.0));
    }

    #[test]
    fn wkt_io() {
        let g = geom("POINT (1 2)");
        assert_eq!(
            call("ST_ASTEXT", &[g]).unwrap(),
            SqlValue::Str("POINT (1 2)".into())
        );
    }

    #[test]
    fn scalar_helpers() {
        assert_eq!(
            call("ABS", &[SqlValue::Float(-2.5)]).unwrap(),
            SqlValue::Float(2.5)
        );
        assert_eq!(
            call("SQRT", &[SqlValue::Int(16)]).unwrap(),
            SqlValue::Float(4.0)
        );
        assert_eq!(
            call("ROUND", &[SqlValue::Float(2.5)]).unwrap(),
            SqlValue::Float(3.0)
        );
    }

    #[test]
    fn unknown_function() {
        assert!(call("ST_TELEPORT", &[]).is_err());
    }

    #[test]
    fn type_errors() {
        assert!(call("ST_X", &[SqlValue::Int(1)]).is_err());
        assert!(call("ST_CONTAINS", &[SqlValue::Int(1), SqlValue::Int(2)]).is_err());
    }
}
