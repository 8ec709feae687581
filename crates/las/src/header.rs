//! The LAS public header block.
//!
//! A fixed 128-byte header modelled on the LAS 1.2 public header block:
//! `LASF` signature, version, point count, record length, the scale/offset
//! quantisation that turns world doubles into 32-bit integers, and the
//! min/max bounding box that file-based solutions use to skip whole files
//! without opening their payload (§2.2 of the paper).

use crate::error::LasError;

/// On-disk size of the header in bytes.
pub const HEADER_LEN: usize = 128;

/// Magic signature at offset 0.
pub const MAGIC: &[u8; 4] = b"LASF";

/// Payload compression of the point data that follows the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compression {
    /// Raw fixed-width records (".las").
    None,
    /// Chunked column-wise frame-of-reference packing (".laz-lite").
    LazLite,
}

impl Compression {
    fn to_byte(self) -> u8 {
        match self {
            Compression::None => 0,
            Compression::LazLite => 1,
        }
    }

    fn from_byte(b: u8) -> Result<Self, LasError> {
        match b {
            0 => Ok(Compression::None),
            1 => Ok(Compression::LazLite),
            other => Err(LasError::Corrupt(format!("unknown compression {other}"))),
        }
    }
}

/// The public header block of a LAS / laz-lite file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LasHeader {
    /// Format version (major, minor); this implementation writes (1, 2).
    pub version: (u8, u8),
    /// Payload compression.
    pub compression: Compression,
    /// Number of point records in the file.
    pub num_points: u64,
    /// Coordinate quantisation: world = quantised * scale + offset.
    pub scale: [f64; 3],
    /// Coordinate offsets.
    pub offset: [f64; 3],
    /// World-coordinate minima (x, y, z).
    pub min: [f64; 3],
    /// World-coordinate maxima (x, y, z).
    pub max: [f64; 3],
}

impl LasHeader {
    /// Start building a header.
    pub fn builder() -> LasHeaderBuilder {
        LasHeaderBuilder::default()
    }

    /// Quantise world coordinates to storage integers.
    pub fn quantise(&self, x: f64, y: f64, z: f64) -> Result<(i32, i32, i32), LasError> {
        let q = |v: f64, axis: usize, name: char| -> Result<i32, LasError> {
            let t = ((v - self.offset[axis]) / self.scale[axis]).round();
            if t.is_finite() && (i32::MIN as f64..=i32::MAX as f64).contains(&t) {
                Ok(t as i32)
            } else {
                Err(LasError::CoordinateOverflow {
                    value: v,
                    axis: name,
                })
            }
        };
        Ok((q(x, 0, 'x')?, q(y, 1, 'y')?, q(z, 2, 'z')?))
    }

    /// De-quantise storage integers back to world coordinates.
    pub fn dequantise(&self, x: i32, y: i32, z: i32) -> (f64, f64, f64) {
        (
            f64::from(x) * self.scale[0] + self.offset[0],
            f64::from(y) * self.scale[1] + self.offset[1],
            f64::from(z) * self.scale[2] + self.offset[2],
        )
    }

    /// Whether the file's bbox intersects the closed query window — the
    /// header-level pre-filter of file-based solutions.
    pub fn bbox_intersects(&self, min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> bool {
        self.min[0] <= max_x && self.max[0] >= min_x && self.min[1] <= max_y && self.max[1] >= min_y
    }

    /// Serialise to the fixed 128-byte layout.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..4].copy_from_slice(MAGIC);
        out[4] = self.version.0;
        out[5] = self.version.1;
        out[6] = self.compression.to_byte();
        out[7] = crate::record::RECORD_LEN as u8;
        out[8..16].copy_from_slice(&self.num_points.to_le_bytes());
        let mut o = 16;
        for arr in [&self.scale, &self.offset, &self.min, &self.max] {
            for v in arr.iter() {
                out[o..o + 8].copy_from_slice(&v.to_le_bytes());
                o += 8;
            }
        }
        debug_assert_eq!(o, 112);
        out
    }

    /// Parse and validate the fixed header layout.
    pub fn decode(bytes: &[u8]) -> Result<Self, LasError> {
        if bytes.len() < HEADER_LEN {
            return Err(LasError::Truncated {
                what: "header",
                expected: HEADER_LEN,
                got: bytes.len(),
            });
        }
        if &bytes[0..4] != MAGIC {
            return Err(LasError::BadMagic(bytes[0..4].try_into().unwrap()));
        }
        let version = (bytes[4], bytes[5]);
        if version != (1, 2) {
            return Err(LasError::UnsupportedVersion(version.0, version.1));
        }
        let compression = Compression::from_byte(bytes[6])?;
        if bytes[7] as usize != crate::record::RECORD_LEN {
            return Err(LasError::Corrupt(format!(
                "record length {} != {}",
                bytes[7],
                crate::record::RECORD_LEN
            )));
        }
        let num_points = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let mut o = 16;
        let mut arrays = [[0.0f64; 3]; 4];
        for arr in arrays.iter_mut() {
            for v in arr.iter_mut() {
                *v = f64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
                o += 8;
            }
        }
        let [scale, offset, min, max] = arrays;
        if scale
            .iter()
            .any(|&s| s <= 0.0 || !s.is_finite() || s.is_nan())
        {
            return Err(LasError::Corrupt("non-positive scale".into()));
        }
        if min.iter().zip(&max).any(|(lo, hi)| lo > hi) {
            return Err(LasError::Corrupt("inverted bbox".into()));
        }
        Ok(LasHeader {
            version,
            compression,
            num_points,
            scale,
            offset,
            min,
            max,
        })
    }
}

/// Builder for [`LasHeader`].
#[derive(Debug, Clone)]
pub struct LasHeaderBuilder {
    compression: Compression,
    scale: [f64; 3],
    offset: [f64; 3],
    min: [f64; 3],
    max: [f64; 3],
}

impl Default for LasHeaderBuilder {
    fn default() -> Self {
        LasHeaderBuilder {
            compression: Compression::None,
            scale: [0.01, 0.01, 0.01],
            offset: [0.0; 3],
            min: [0.0; 3],
            max: [0.0; 3],
        }
    }
}

impl LasHeaderBuilder {
    /// Set quantisation steps (default 1 cm).
    pub fn scale(mut self, x: f64, y: f64, z: f64) -> Self {
        self.scale = [x, y, z];
        self
    }

    /// Set quantisation offsets.
    pub fn offset(mut self, x: f64, y: f64, z: f64) -> Self {
        self.offset = [x, y, z];
        self
    }

    /// Set payload compression.
    pub fn compression(mut self, c: Compression) -> Self {
        self.compression = c;
        self
    }

    /// Finalise (point count starts at 0; the writer fills it in).
    pub fn build(self) -> LasHeader {
        LasHeader {
            version: (1, 2),
            compression: self.compression,
            num_points: 0,
            scale: self.scale,
            offset: self.offset,
            min: self.min,
            max: self.max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> LasHeader {
        let mut h = LasHeader::builder()
            .scale(0.01, 0.01, 0.001)
            .offset(100.0, 200.0, 0.0)
            .compression(Compression::LazLite)
            .build();
        h.min = [100.0, 200.0, -5.0];
        h.max = [300.0, 400.0, 50.0];
        h.num_points = 123_456_789_012;
        h
    }

    #[test]
    fn encode_decode_roundtrip() {
        let h = header();
        let bytes = h.encode();
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(LasHeader::decode(&bytes).unwrap(), h);
    }

    #[test]
    fn quantise_dequantise() {
        let h = header();
        let (qx, qy, qz) = h.quantise(123.456, 234.567, 1.234).unwrap();
        let (x, y, z) = h.dequantise(qx, qy, qz);
        assert!((x - 123.456).abs() < 0.005);
        assert!((y - 234.567).abs() < 0.005);
        assert!((z - 1.234).abs() < 0.0005);
    }

    #[test]
    fn bad_inputs_rejected() {
        let h = header();
        let mut bytes = h.encode();
        bytes[0] = b'X';
        assert!(matches!(
            LasHeader::decode(&bytes).unwrap_err(),
            LasError::BadMagic(_)
        ));
        let mut bytes = h.encode();
        bytes[4] = 9;
        assert!(matches!(
            LasHeader::decode(&bytes).unwrap_err(),
            LasError::UnsupportedVersion(9, 2)
        ));
        let mut bytes = h.encode();
        bytes[6] = 77;
        assert!(LasHeader::decode(&bytes).is_err());
        let mut bytes = h.encode();
        bytes[7] = 10;
        assert!(LasHeader::decode(&bytes).is_err());
        assert!(matches!(
            LasHeader::decode(&bytes[..50]).unwrap_err(),
            LasError::Truncated { .. }
        ));
        // Zero scale.
        let mut bad = header();
        bad.scale = [0.0, 0.01, 0.01];
        assert!(LasHeader::decode(&bad.encode()).is_err());
        // Inverted bbox.
        let mut bad = header();
        bad.min = [10.0, 0.0, 0.0];
        bad.max = [-10.0, 1.0, 1.0];
        assert!(LasHeader::decode(&bad.encode()).is_err());
    }

    #[test]
    fn bbox_intersection() {
        let h = header(); // bbox x:[100,300] y:[200,400]
        assert!(h.bbox_intersects(0.0, 0.0, 150.0, 250.0));
        assert!(h.bbox_intersects(300.0, 400.0, 500.0, 500.0), "touching");
        assert!(!h.bbox_intersects(301.0, 0.0, 500.0, 500.0));
        assert!(!h.bbox_intersects(0.0, 0.0, 99.0, 199.0));
    }
}
