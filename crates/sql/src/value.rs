//! Runtime values of the SQL executor.

use std::cmp::Ordering;

use lidardb_geom::Geometry;

use crate::error::SqlError;

/// A dynamically typed SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlValue {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Text.
    Str(String),
    /// Geometry.
    Geom(Geometry),
}

impl SqlValue {
    /// Short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            SqlValue::Null => "NULL",
            SqlValue::Bool(_) => "BOOLEAN",
            SqlValue::Int(_) => "INTEGER",
            SqlValue::Float(_) => "DOUBLE",
            SqlValue::Str(_) => "VARCHAR",
            SqlValue::Geom(_) => "GEOMETRY",
        }
    }

    /// Coerce to float (ints widen; anything else errors).
    pub fn as_f64(&self) -> Result<f64, SqlError> {
        match self {
            SqlValue::Int(v) => Ok(*v as f64),
            SqlValue::Float(v) => Ok(*v),
            other => Err(SqlError::Exec(format!(
                "expected a number, got {}",
                other.type_name()
            ))),
        }
    }

    /// Coerce to boolean.
    pub fn as_bool(&self) -> Result<bool, SqlError> {
        match self {
            SqlValue::Bool(b) => Ok(*b),
            SqlValue::Null => Ok(false), // NULL is not TRUE
            other => Err(SqlError::Exec(format!(
                "expected a boolean, got {}",
                other.type_name()
            ))),
        }
    }

    /// Coerce to geometry.
    pub fn as_geom(&self) -> Result<&Geometry, SqlError> {
        match self {
            SqlValue::Geom(g) => Ok(g),
            other => Err(SqlError::Exec(format!(
                "expected a geometry, got {}",
                other.type_name()
            ))),
        }
    }

    /// Whether the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, SqlValue::Null)
    }

    /// SQL comparison; `None` when either side is NULL or the types are
    /// incomparable.
    pub fn compare(&self, other: &SqlValue) -> Option<Ordering> {
        match (self, other) {
            (SqlValue::Null, _) | (_, SqlValue::Null) => None,
            (SqlValue::Str(a), SqlValue::Str(b)) => Some(a.cmp(b)),
            (SqlValue::Bool(a), SqlValue::Bool(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (a, b) = (a.as_f64().ok()?, b.as_f64().ok()?);
                a.partial_cmp(&b)
            }
        }
    }

    /// Render for result-set display.
    pub fn render(&self) -> String {
        match self {
            SqlValue::Null => "NULL".to_string(),
            SqlValue::Bool(b) => b.to_string(),
            SqlValue::Int(v) => v.to_string(),
            SqlValue::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{:.1}", v)
                } else {
                    format!("{v}")
                }
            }
            SqlValue::Str(s) => s.clone(),
            SqlValue::Geom(g) => lidardb_geom::wkt::to_wkt(g),
        }
    }
}

impl From<f64> for SqlValue {
    fn from(v: f64) -> Self {
        SqlValue::Float(v)
    }
}
impl From<i64> for SqlValue {
    fn from(v: i64) -> Self {
        SqlValue::Int(v)
    }
}
impl From<&str> for SqlValue {
    fn from(v: &str) -> Self {
        SqlValue::Str(v.to_string())
    }
}
impl From<bool> for SqlValue {
    fn from(v: bool) -> Self {
        SqlValue::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coercions() {
        assert_eq!(SqlValue::Int(3).as_f64().unwrap(), 3.0);
        assert_eq!(SqlValue::Float(2.5).as_f64().unwrap(), 2.5);
        assert!(SqlValue::Str("x".into()).as_f64().is_err());
        assert!(SqlValue::Bool(true).as_bool().unwrap());
        assert!(!SqlValue::Null.as_bool().unwrap());
        assert!(SqlValue::Int(1).as_bool().is_err());
    }

    #[test]
    fn comparisons() {
        use Ordering::*;
        assert_eq!(SqlValue::Int(3).compare(&SqlValue::Float(3.0)), Some(Equal));
        assert_eq!(SqlValue::Int(2).compare(&SqlValue::Int(5)), Some(Less));
        assert_eq!(
            SqlValue::Str("b".into()).compare(&SqlValue::Str("a".into())),
            Some(Greater)
        );
        assert_eq!(SqlValue::Null.compare(&SqlValue::Int(1)), None);
        assert_eq!(
            SqlValue::Str("a".into()).compare(&SqlValue::Int(1)),
            None,
            "incomparable types"
        );
    }

    #[test]
    fn render() {
        assert_eq!(SqlValue::Float(3.0).render(), "3.0");
        assert_eq!(SqlValue::Float(3.25).render(), "3.25");
        assert_eq!(SqlValue::Int(7).render(), "7");
        assert_eq!(SqlValue::Null.render(), "NULL");
    }
}
