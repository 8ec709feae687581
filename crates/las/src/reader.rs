//! Reading LAS / laz-lite files.

use std::fs;
use std::path::Path;

use crate::error::LasError;
use crate::header::{Compression, LasHeader, HEADER_LEN};
use crate::lazlite;
use crate::record::{PointRecord, RECORD_LEN};

/// A fully loaded point-cloud file.
#[derive(Debug)]
pub struct LasReader {
    header: LasHeader,
    payload: Vec<u8>,
}

impl LasReader {
    /// Open a file and validate its header (the payload is read but not yet
    /// decoded — header-only queries like the file-store bbox pre-filter
    /// use [`LasReader::header`] and never pay decode cost).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, LasError> {
        let bytes = fs::read(path)?;
        Self::from_bytes(bytes)
    }

    /// Parse from an in-memory buffer.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, LasError> {
        let header = LasHeader::decode(&bytes)?;
        let payload = bytes[HEADER_LEN..].to_vec();
        // Eagerly validate payload sizing for the uncompressed format.
        if header.compression == Compression::None {
            // `num_points` is an untrusted wire count: multiply checked so
            // a forged header (e.g. u64::MAX points) is rejected as corrupt
            // instead of overflowing (debug panic / release wraparound that
            // could make a tiny payload look correctly sized).
            let expected = (header.num_points as usize)
                .checked_mul(RECORD_LEN)
                .ok_or_else(|| {
                    LasError::Corrupt(format!(
                        "header declares {} points, more than any file can hold",
                        header.num_points
                    ))
                })?;
            if payload.len() < expected {
                return Err(LasError::Truncated {
                    what: "point data",
                    expected,
                    got: payload.len(),
                });
            }
            if payload.len() > expected {
                return Err(LasError::Corrupt(format!(
                    "{} trailing bytes after point data",
                    payload.len() - expected
                )));
            }
        }
        Ok(LasReader { header, payload })
    }

    /// Read just the header of a file without touching the payload.
    pub fn read_header(path: impl AsRef<Path>) -> Result<LasHeader, LasError> {
        let f = fs::File::open(path)?;
        use std::io::Read;
        let mut buf = [0u8; HEADER_LEN];
        let mut r = std::io::BufReader::new(f);
        let mut got = 0;
        while got < HEADER_LEN {
            let n = r.read(&mut buf[got..])?;
            if n == 0 {
                return Err(LasError::Truncated {
                    what: "header",
                    expected: HEADER_LEN,
                    got,
                });
            }
            got += n;
        }
        LasHeader::decode(&buf)
    }

    /// The validated header.
    pub fn header(&self) -> &LasHeader {
        &self.header
    }

    /// Decode every point record.
    pub fn read_points(&self) -> Result<Vec<PointRecord>, LasError> {
        match self.header.compression {
            Compression::None => {
                let n = self.header.num_points as usize;
                let mut out = Vec::with_capacity(n);
                for chunk in self.payload.chunks_exact(RECORD_LEN).take(n) {
                    out.push(PointRecord::decode(&self.header, chunk)?);
                }
                Ok(out)
            }
            Compression::LazLite => {
                let pts = lazlite::decompress(&self.header, &self.payload)?;
                if pts.len() != self.header.num_points as usize {
                    return Err(LasError::Corrupt(format!(
                        "header declares {} points, payload holds {}",
                        self.header.num_points,
                        pts.len()
                    )));
                }
                Ok(pts)
            }
        }
    }

    /// Decode only the records in `[start, end)` (clamped to the file).
    ///
    /// For raw LAS this seeks straight to the fixed-width records; for
    /// laz-lite it decodes only the overlapping chunks. This is the read
    /// pattern a `lasindex`-driven query performs.
    pub fn read_points_range(
        &self,
        start: usize,
        end: usize,
    ) -> Result<Vec<PointRecord>, LasError> {
        let n = self.header.num_points as usize;
        let start = start.min(n);
        let end = end.min(n);
        if start >= end {
            return Ok(Vec::new());
        }
        match self.header.compression {
            Compression::None => {
                let mut out = Vec::with_capacity(end - start);
                for i in start..end {
                    let off = i * RECORD_LEN;
                    out.push(PointRecord::decode(
                        &self.header,
                        &self.payload[off..off + RECORD_LEN],
                    )?);
                }
                Ok(out)
            }
            Compression::LazLite => {
                lazlite::decompress_range(&self.header, &self.payload, start, end)
            }
        }
    }

    /// Size of the on-disk payload in bytes (storage accounting for E2).
    pub fn payload_bytes(&self) -> usize {
        self.payload.len()
    }
}

/// Convenience: open + decode in one call.
pub fn read_las_file(path: impl AsRef<Path>) -> Result<(LasHeader, Vec<PointRecord>), LasError> {
    let r = LasReader::open(path)?;
    let pts = r.read_points()?;
    Ok((*r.header(), pts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_las_file;

    fn tdir() -> lidardb_test_support::ScratchDir {
        lidardb_test_support::ScratchDir::new("reader_test")
    }

    fn template(c: Compression) -> LasHeader {
        LasHeader::builder()
            .scale(0.001, 0.001, 0.001)
            .compression(c)
            .build()
    }

    fn pts(n: usize) -> Vec<PointRecord> {
        (0..n)
            .map(|i| PointRecord {
                x: i as f64,
                y: (n - i) as f64,
                z: 5.0,
                intensity: 9,
                ..Default::default()
            })
            .collect()
    }

    #[test]
    fn roundtrip_both_compressions() {
        for (name, c) in [
            ("r.las", Compression::None),
            ("r.lazl", Compression::LazLite),
        ] {
            let dir = tdir();
            let path = dir.join(name);
            write_las_file(&path, template(c), &pts(777)).unwrap();
            let (h, back) = read_las_file(&path).unwrap();
            assert_eq!(h.num_points, 777);
            assert_eq!(back.len(), 777);
            assert!((back[5].x - 5.0).abs() < 0.001);
        }
    }

    #[test]
    fn lazlite_is_smaller_on_disk() {
        let dir = tdir();
        let a = dir.join("size.las");
        let b = dir.join("size.lazl");
        let data = pts(20_000);
        write_las_file(&a, template(Compression::None), &data).unwrap();
        write_las_file(&b, template(Compression::LazLite), &data).unwrap();
        let raw = fs::metadata(&a).unwrap().len();
        let comp = fs::metadata(&b).unwrap().len();
        assert!(
            comp * 2 < raw,
            "laz-lite {comp} should be well under half of {raw}"
        );
    }

    #[test]
    fn header_only_read() {
        let dir = tdir();
        let path = dir.join("h.las");
        write_las_file(&path, template(Compression::None), &pts(10)).unwrap();
        let h = LasReader::read_header(&path).unwrap();
        assert_eq!(h.num_points, 10);
    }

    #[test]
    fn truncated_file_rejected() {
        let dir = tdir();
        let path = dir.join("trunc.las");
        write_las_file(&path, template(Compression::None), &pts(100)).unwrap();
        let bytes = fs::read(&path).unwrap();
        for cut in [0, 10, HEADER_LEN - 1, HEADER_LEN + 5, bytes.len() - 1] {
            assert!(
                LasReader::from_bytes(bytes[..cut].to_vec()).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let dir = tdir();
        let path = dir.join("garbage.las");
        write_las_file(&path, template(Compression::None), &pts(10)).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAA; 7]);
        assert!(matches!(
            LasReader::from_bytes(bytes).unwrap_err(),
            LasError::Corrupt(_)
        ));
    }

    #[test]
    fn lying_point_count_rejected_for_lazlite() {
        let dir = tdir();
        let path = dir.join("liar.lazl");
        let h = write_las_file(&path, template(Compression::LazLite), &pts(50)).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mut fake = h;
        fake.num_points = 51;
        bytes[..HEADER_LEN].copy_from_slice(&fake.encode());
        let r = LasReader::from_bytes(bytes).unwrap();
        assert!(r.read_points().is_err());
    }

    /// Regression: `from_bytes` computed `num_points * RECORD_LEN` with an
    /// unchecked multiply, so a forged header declaring `u64::MAX` points
    /// overflowed (debug panic; release wraparound that could mis-size the
    /// payload check). The multiply is now checked and rejects as corrupt.
    #[test]
    fn absurd_point_count_rejected_without_overflow() {
        let dir = tdir();
        let path = dir.join("huge_count.las");
        let h = write_las_file(&path, template(Compression::None), &pts(10)).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mut fake = h;
        fake.num_points = u64::MAX;
        bytes[..HEADER_LEN].copy_from_slice(&fake.encode());
        assert!(matches!(
            LasReader::from_bytes(bytes).unwrap_err(),
            LasError::Corrupt(_)
        ));
    }

    #[test]
    fn range_reads_match_full_reads() {
        for c in [Compression::None, Compression::LazLite] {
            let dir = tdir();
            let path = dir.join(format!("range_{c:?}.las"));
            write_las_file(&path, template(c), &pts(300)).unwrap();
            let r = LasReader::open(&path).unwrap();
            let full = r.read_points().unwrap();
            for (s, e) in [
                (0, 10),
                (295, 300),
                (100, 200),
                (0, 300),
                (50, 50),
                (290, 999),
            ] {
                let part = r.read_points_range(s, e).unwrap();
                assert_eq!(part, full[s.min(300)..e.min(300)], "{c:?} {s}..{e}");
            }
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            LasReader::open(tdir().join("nope.las")).unwrap_err(),
            LasError::Io(_)
        ));
    }
}
