//! Writing LAS / laz-lite files.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::error::LasError;
use crate::header::{Compression, LasHeader};
use crate::lazlite;
use crate::record::PointRecord;

/// A buffered point-cloud file writer.
///
/// Records are accumulated and flushed on [`LasWriter::finish`], which also
/// computes the true bbox and point count for the header — mirroring how
/// LAS tooling finalises headers after the pass over the data.
pub struct LasWriter {
    path: std::path::PathBuf,
    template: LasHeader,
    records: Vec<PointRecord>,
}

impl LasWriter {
    /// Start a writer for `path` with `template` supplying scale/offset and
    /// compression (bbox and count are recomputed at finish).
    pub fn create(path: impl AsRef<Path>, template: LasHeader) -> Self {
        LasWriter {
            path: path.as_ref().to_path_buf(),
            template,
            records: Vec::new(),
        }
    }

    /// Queue one record.
    pub fn write_point(&mut self, rec: PointRecord) {
        self.records.push(rec);
    }

    /// Queue many records.
    pub fn write_points(&mut self, recs: &[PointRecord]) {
        self.records.extend_from_slice(recs);
    }

    /// Write the file and return the final header.
    pub fn finish(self) -> Result<LasHeader, LasError> {
        write_las_file(&self.path, self.template, &self.records)
    }
}

/// One-shot write of a complete file. Returns the final header (with the
/// computed bbox and count).
pub fn write_las_file(
    path: impl AsRef<Path>,
    template: LasHeader,
    records: &[PointRecord],
) -> Result<LasHeader, LasError> {
    let mut header = template;
    header.num_points = records.len() as u64;
    if let Some(first) = records.first() {
        let mut min = [first.x, first.y, first.z];
        let mut max = min;
        for r in records {
            for (i, v) in [r.x, r.y, r.z].into_iter().enumerate() {
                min[i] = min[i].min(v);
                max[i] = max[i].max(v);
            }
        }
        header.min = min;
        header.max = max;
    } else {
        header.min = [0.0; 3];
        header.max = [0.0; 3];
    }

    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&header.encode())?;
    match header.compression {
        Compression::None => {
            let mut buf = Vec::with_capacity(64 * 1024);
            for r in records {
                r.encode(&header, &mut buf)?;
                if buf.len() >= 60 * 1024 {
                    w.write_all(&buf)?;
                    buf.clear();
                }
            }
            w.write_all(&buf)?;
        }
        Compression::LazLite => {
            let blob = lazlite::compress(&header, records)?;
            w.write_all(&blob)?;
        }
    }
    w.flush()?;
    Ok(header)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::read_las_file;

    fn template(c: Compression) -> LasHeader {
        LasHeader::builder()
            .scale(0.01, 0.01, 0.01)
            .offset(0.0, 0.0, 0.0)
            .compression(c)
            .build()
    }

    fn some_points(n: usize) -> Vec<PointRecord> {
        (0..n)
            .map(|i| PointRecord {
                x: i as f64 * 0.5,
                y: 100.0 - i as f64 * 0.25,
                z: (i % 10) as f64,
                intensity: i as u16,
                classification: (i % 3) as u8 + 2,
                gps_time: i as f64 * 0.001,
                ..Default::default()
            })
            .collect()
    }

    #[test]
    fn header_gets_bbox_and_count() {
        let dir = lidardb_test_support::ScratchDir::new("writer_test");
        let path = dir.join("bbox.las");
        let pts = some_points(100);
        let h = write_las_file(&path, template(Compression::None), &pts).unwrap();
        assert_eq!(h.num_points, 100);
        assert_eq!(h.min[0], 0.0);
        assert_eq!(h.max[0], 49.5);
        assert_eq!(h.min[1], 100.0 - 99.0 * 0.25);
        assert_eq!(h.max[1], 100.0);
        let (h2, pts2) = read_las_file(&path).unwrap();
        assert_eq!(h2, h);
        assert_eq!(pts2.len(), 100);
    }

    #[test]
    fn streaming_writer_matches_oneshot() {
        let dir = lidardb_test_support::ScratchDir::new("writer_test");
        let a = dir.join("stream.laz");
        let b = dir.join("oneshot.laz");
        let pts = some_points(500);
        let mut w = LasWriter::create(&a, template(Compression::LazLite));
        for p in &pts[..200] {
            w.write_point(*p);
        }
        w.write_points(&pts[200..]);
        let ha = w.finish().unwrap();
        let hb = write_las_file(&b, template(Compression::LazLite), &pts).unwrap();
        assert_eq!(ha, hb);
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    }

    #[test]
    fn empty_file_roundtrips() {
        let dir = lidardb_test_support::ScratchDir::new("writer_test");
        let path = dir.join("empty.las");
        let h = write_las_file(&path, template(Compression::None), &[]).unwrap();
        assert_eq!(h.num_points, 0);
        let (_, pts) = read_las_file(&path).unwrap();
        assert!(pts.is_empty());
    }
}
