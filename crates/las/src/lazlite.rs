//! `laz-lite` — the chunked column-wise compression codec.
//!
//! Substitute for Rapidlasso LAZ (see DESIGN.md §2). Point records are cut
//! into chunks of [`CHUNK`] records; within a chunk every field is laid out
//! as its own array (a transposition to struct-of-arrays) and compressed
//! with frame-of-reference bit packing. The quantised integer coordinates
//! of a flight line vary slowly, so X/Y/Z pack into a few bits per value —
//! the same redundancy real LAZ exploits with arithmetic-coded deltas.

use lidardb_storage::compress::forpack::ForPacked;

use crate::error::LasError;
use crate::header::LasHeader;
use crate::record::PointRecord;

/// Records per compression chunk.
pub const CHUNK: usize = 4096;

/// Number of per-field arrays in a chunk.
const NUM_FIELDS: usize = 20;

/// Transpose records into per-field `i64` arrays (floats via bit patterns,
/// coordinates via header quantisation).
fn transpose(h: &LasHeader, records: &[PointRecord]) -> Result<Vec<Vec<i64>>, LasError> {
    let mut fields: Vec<Vec<i64>> = (0..NUM_FIELDS)
        .map(|_| Vec::with_capacity(records.len()))
        .collect();
    for r in records {
        let (qx, qy, qz) = h.quantise(r.x, r.y, r.z)?;
        let ret_byte = (r.return_number & 0x7)
            | ((r.number_of_returns & 0x7) << 3)
            | ((r.scan_direction & 1) << 6)
            | ((r.edge_of_flight_line & 1) << 7);
        let class_byte = (r.classification & 0x1F)
            | ((r.synthetic & 1) << 5)
            | ((r.key_point & 1) << 6)
            | ((r.withheld & 1) << 7);
        let vals: [i64; NUM_FIELDS] = [
            i64::from(qx),
            i64::from(qy),
            i64::from(qz),
            i64::from(r.intensity),
            i64::from(ret_byte),
            i64::from(class_byte),
            i64::from(r.scan_angle_rank),
            i64::from(r.user_data),
            i64::from(r.point_source_id),
            r.gps_time.to_bits() as i64,
            i64::from(r.red),
            i64::from(r.green),
            i64::from(r.blue),
            i64::from(r.wave_packet_index),
            r.wave_offset as i64,
            i64::from(r.wave_size),
            i64::from(r.wave_return_loc.to_bits()),
            i64::from(r.wave_xt.to_bits()),
            i64::from(r.wave_yt.to_bits()),
            i64::from(r.wave_zt.to_bits()),
        ];
        for (f, v) in fields.iter_mut().zip(vals) {
            f.push(v);
        }
    }
    Ok(fields)
}

#[allow(clippy::needless_range_loop)] // row-major access over 20 parallel field arrays
fn untranspose(h: &LasHeader, fields: &[Vec<i64>]) -> Result<Vec<PointRecord>, LasError> {
    let n = fields[0].len();
    if fields.iter().any(|f| f.len() != n) {
        return Err(LasError::Corrupt("laz-lite field length mismatch".into()));
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let g = |f: usize| fields[f][i];
        let (x, y, z) = h.dequantise(g(0) as i32, g(1) as i32, g(2) as i32);
        let ret_byte = g(4) as u8;
        let class_byte = g(5) as u8;
        out.push(PointRecord {
            x,
            y,
            z,
            intensity: g(3) as u16,
            return_number: ret_byte & 0x7,
            number_of_returns: (ret_byte >> 3) & 0x7,
            scan_direction: (ret_byte >> 6) & 1,
            edge_of_flight_line: (ret_byte >> 7) & 1,
            classification: class_byte & 0x1F,
            synthetic: (class_byte >> 5) & 1,
            key_point: (class_byte >> 6) & 1,
            withheld: (class_byte >> 7) & 1,
            scan_angle_rank: g(6) as i8,
            user_data: g(7) as u8,
            point_source_id: g(8) as u16,
            gps_time: f64::from_bits(g(9) as u64),
            red: g(10) as u16,
            green: g(11) as u16,
            blue: g(12) as u16,
            wave_packet_index: g(13) as u8,
            wave_offset: g(14) as u64,
            wave_size: g(15) as u32,
            wave_return_loc: f32::from_bits(g(16) as u32),
            wave_xt: f32::from_bits(g(17) as u32),
            wave_yt: f32::from_bits(g(18) as u32),
            wave_zt: f32::from_bits(g(19) as u32),
        });
    }
    Ok(out)
}

/// Compress all records into the laz-lite payload (chunk count + chunks).
pub fn compress(h: &LasHeader, records: &[PointRecord]) -> Result<Vec<u8>, LasError> {
    let mut out = Vec::new();
    let nchunks = records.len().div_ceil(CHUNK);
    out.extend_from_slice(&(nchunks as u32).to_le_bytes());
    for chunk in records.chunks(CHUNK) {
        let fields = transpose(h, chunk)?;
        out.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        for f in &fields {
            let packed = ForPacked::encode(f);
            let bytes = packed.to_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&bytes);
        }
    }
    Ok(out)
}

/// Decompress a laz-lite payload produced by [`compress`].
pub fn decompress(h: &LasHeader, bytes: &[u8]) -> Result<Vec<PointRecord>, LasError> {
    let need = |pos: usize, n: usize| -> Result<(), LasError> {
        if pos + n > bytes.len() {
            Err(LasError::Truncated {
                what: "laz-lite payload",
                expected: pos + n,
                got: bytes.len(),
            })
        } else {
            Ok(())
        }
    };
    let mut pos = 0usize;
    need(pos, 4)?;
    let nchunks = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    pos += 4;
    let mut out = Vec::new();
    for _ in 0..nchunks {
        need(pos, 4)?;
        let nrec = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        if nrec > CHUNK {
            return Err(LasError::Corrupt(format!("chunk of {nrec} records")));
        }
        let mut fields = Vec::with_capacity(NUM_FIELDS);
        for _ in 0..NUM_FIELDS {
            need(pos, 4)?;
            let blen = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4;
            need(pos, blen)?;
            let (packed, consumed) = ForPacked::from_bytes(&bytes[pos..pos + blen])
                .map_err(|e| LasError::Corrupt(format!("laz-lite field: {e}")))?;
            if consumed != blen || packed.len() != nrec {
                return Err(LasError::Corrupt("laz-lite field framing".into()));
            }
            pos += blen;
            fields.push(packed.decode());
        }
        out.extend(untranspose(h, &fields)?);
    }
    if pos != bytes.len() {
        return Err(LasError::Corrupt("trailing laz-lite bytes".into()));
    }
    Ok(out)
}

/// Decompress only the records in `[start, end)`, skipping whole chunks
/// that fall outside the range without decoding their payloads — the
/// chunk-level partial decode real LAZ readers perform when driven by a
/// `lasindex`.
pub fn decompress_range(
    h: &LasHeader,
    bytes: &[u8],
    start: usize,
    end: usize,
) -> Result<Vec<PointRecord>, LasError> {
    let need = |pos: usize, n: usize| -> Result<(), LasError> {
        if pos + n > bytes.len() {
            Err(LasError::Truncated {
                what: "laz-lite payload",
                expected: pos + n,
                got: bytes.len(),
            })
        } else {
            Ok(())
        }
    };
    let mut pos = 0usize;
    need(pos, 4)?;
    let nchunks = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    pos += 4;
    let mut out = Vec::new();
    let mut first_of_chunk = 0usize;
    for _ in 0..nchunks {
        need(pos, 4)?;
        let nrec = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        if nrec > CHUNK {
            return Err(LasError::Corrupt(format!("chunk of {nrec} records")));
        }
        let chunk_range = first_of_chunk..first_of_chunk + nrec;
        let overlaps = chunk_range.start < end && chunk_range.end > start;
        if overlaps {
            let mut fields = Vec::with_capacity(NUM_FIELDS);
            for _ in 0..NUM_FIELDS {
                need(pos, 4)?;
                let blen = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
                pos += 4;
                need(pos, blen)?;
                let (packed, consumed) = ForPacked::from_bytes(&bytes[pos..pos + blen])
                    .map_err(|e| LasError::Corrupt(format!("laz-lite field: {e}")))?;
                if consumed != blen || packed.len() != nrec {
                    return Err(LasError::Corrupt("laz-lite field framing".into()));
                }
                pos += blen;
                fields.push(packed.decode());
            }
            let recs = untranspose(h, &fields)?;
            let lo = start.saturating_sub(first_of_chunk);
            let hi = (end - first_of_chunk).min(nrec);
            out.extend_from_slice(&recs[lo..hi]);
        } else {
            // Skip the 20 field frames without decoding.
            for _ in 0..NUM_FIELDS {
                need(pos, 4)?;
                let blen = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
                pos += 4;
                need(pos, blen)?;
                pos += blen;
            }
        }
        first_of_chunk += nrec;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::Compression;

    fn header() -> LasHeader {
        let mut h = LasHeader::builder()
            .scale(0.01, 0.01, 0.01)
            .offset(0.0, 0.0, 0.0)
            .compression(Compression::LazLite)
            .build();
        h.min = [0.0, 0.0, 0.0];
        h.max = [1000.0, 1000.0, 100.0];
        h
    }

    fn flight_line(n: usize) -> Vec<PointRecord> {
        (0..n)
            .map(|i| PointRecord {
                x: 100.0 + i as f64 * 0.35,
                y: 500.0 + ((i as f64) * 0.01).sin() * 2.0,
                z: 10.0 + (i % 50) as f64 * 0.02,
                intensity: (i % 256) as u16,
                return_number: 1,
                number_of_returns: 1,
                classification: 2,
                gps_time: 1000.0 + i as f64 * 1e-4,
                point_source_id: 7,
                ..Default::default()
            })
            .collect()
    }

    #[test]
    fn roundtrip_exact_after_quantisation() {
        let h = header();
        let recs = flight_line(10_000);
        let blob = compress(&h, &recs).unwrap();
        let back = decompress(&h, &blob).unwrap();
        assert_eq!(back.len(), recs.len());
        for (a, b) in recs.iter().zip(&back) {
            assert!((a.x - b.x).abs() < 0.006);
            assert!((a.y - b.y).abs() < 0.006);
            assert!((a.z - b.z).abs() < 0.006);
            assert_eq!(a.intensity, b.intensity);
            assert_eq!(a.classification, b.classification);
            assert_eq!(a.gps_time, b.gps_time, "float bits are exact");
        }
    }

    #[test]
    fn compresses_flight_lines_well() {
        let h = header();
        let recs = flight_line(50_000);
        let blob = compress(&h, &recs).unwrap();
        let raw = recs.len() * crate::record::RECORD_LEN;
        let ratio = raw as f64 / blob.len() as f64;
        assert!(ratio > 2.0, "laz-lite ratio {ratio:.2} should beat 2x");
    }

    #[test]
    fn empty_and_single_record() {
        let h = header();
        assert_eq!(decompress(&h, &compress(&h, &[]).unwrap()).unwrap(), vec![]);
        let one = flight_line(1);
        let back = decompress(&h, &compress(&h, &one).unwrap()).unwrap();
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn non_chunk_multiple() {
        let h = header();
        let recs = flight_line(CHUNK + 123);
        let back = decompress(&h, &compress(&h, &recs).unwrap()).unwrap();
        assert_eq!(back.len(), recs.len());
    }

    #[test]
    fn corrupt_payloads_rejected() {
        let h = header();
        let recs = flight_line(100);
        let blob = compress(&h, &recs).unwrap();
        // Truncation at many offsets must error, never panic.
        for cut in [0, 3, 4, 10, blob.len() / 2, blob.len() - 1] {
            assert!(decompress(&h, &blob[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage.
        let mut noisy = blob.clone();
        noisy.extend_from_slice(&[1, 2, 3]);
        assert!(decompress(&h, &noisy).is_err());
        // Oversized chunk count in the frame.
        let mut bad = blob;
        bad[4..8].copy_from_slice(&(CHUNK as u32 + 1).to_le_bytes());
        assert!(decompress(&h, &bad).is_err());
    }

    #[test]
    fn range_decode_matches_full_decode() {
        let h = header();
        let recs = flight_line(CHUNK * 2 + 500);
        let blob = compress(&h, &recs).unwrap();
        let full = decompress(&h, &blob).unwrap();
        for (start, end) in [
            (0, 10),
            (CHUNK - 5, CHUNK + 5),
            (CHUNK * 2, CHUNK * 2 + 500),
            (0, recs.len()),
            (recs.len() - 1, recs.len()),
            (100, 100), // empty range
        ] {
            let part = decompress_range(&h, &blob, start, end).unwrap();
            assert_eq!(part, full[start..end], "range {start}..{end}");
        }
    }

    #[test]
    fn special_float_values_roundtrip() {
        let h = header();
        let mut recs = flight_line(3);
        recs[0].gps_time = f64::NAN;
        recs[1].wave_xt = f32::INFINITY;
        recs[2].wave_return_loc = -0.0;
        let back = decompress(&h, &compress(&h, &recs).unwrap()).unwrap();
        assert!(back[0].gps_time.is_nan());
        assert_eq!(back[1].wave_xt, f32::INFINITY);
        assert_eq!(back[2].wave_return_loc.to_bits(), (-0.0f32).to_bits());
    }
}
