//! The 26-attribute point record.
//!
//! The current LAS specification carries "a total of 23 properties excluding
//! the X, Y, and Z coordinates" (§1 of the paper). [`PointRecord`] holds the
//! de-quantised (world-coordinate) form of exactly those 26 attributes; the
//! on-disk layout packs the return/flag bits the way real LAS does and
//! quantises coordinates through the header's scale/offset.

use crate::error::LasError;
use crate::header::LasHeader;

/// On-disk size of one packed point record in bytes.
pub const RECORD_LEN: usize = 63;

/// One LIDAR return with the full attribute set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PointRecord {
    /// Easting (world units, de-quantised).
    pub x: f64,
    /// Northing (world units, de-quantised).
    pub y: f64,
    /// Elevation (world units, de-quantised).
    pub z: f64,
    /// Pulse return magnitude.
    pub intensity: u16,
    /// Return number of this pulse (1-based, 3 bits in the packed form).
    pub return_number: u8,
    /// Total returns of this pulse (3 bits packed).
    pub number_of_returns: u8,
    /// Scan direction flag (1 bit packed).
    pub scan_direction: u8,
    /// Edge-of-flight-line flag (1 bit packed).
    pub edge_of_flight_line: u8,
    /// ASPRS classification code (2 ground, 5 high vegetation, 6 building,
    /// 9 water, ...; 5 bits packed).
    pub classification: u8,
    /// Synthetic-point flag (1 bit packed).
    pub synthetic: u8,
    /// Model-key-point flag (1 bit packed).
    pub key_point: u8,
    /// Withheld flag (1 bit packed).
    pub withheld: u8,
    /// Scan angle in degrees, -90..=90.
    pub scan_angle_rank: i8,
    /// Free byte for the flying service.
    pub user_data: u8,
    /// Flight-line id.
    pub point_source_id: u16,
    /// GPS time of the pulse.
    pub gps_time: f64,
    /// Red channel.
    pub red: u16,
    /// Green channel.
    pub green: u16,
    /// Blue channel.
    pub blue: u16,
    /// Waveform packet descriptor index (LAS 1.3).
    pub wave_packet_index: u8,
    /// Byte offset to the waveform data.
    pub wave_offset: u64,
    /// Waveform packet size in bytes.
    pub wave_size: u32,
    /// Return point location within the waveform.
    pub wave_return_loc: f32,
    /// Waveform parametric dx.
    pub wave_xt: f32,
    /// Waveform parametric dy.
    pub wave_yt: f32,
    /// Waveform parametric dz.
    pub wave_zt: f32,
}

impl PointRecord {
    /// Encode into the packed on-disk layout, quantising coordinates
    /// through the header. Appends exactly [`RECORD_LEN`] bytes.
    pub fn encode(&self, h: &LasHeader, out: &mut Vec<u8>) -> Result<(), LasError> {
        let (qx, qy, qz) = h.quantise(self.x, self.y, self.z)?;
        out.extend_from_slice(&qx.to_le_bytes());
        out.extend_from_slice(&qy.to_le_bytes());
        out.extend_from_slice(&qz.to_le_bytes());
        out.extend_from_slice(&self.intensity.to_le_bytes());
        let ret_byte = (self.return_number & 0x7)
            | ((self.number_of_returns & 0x7) << 3)
            | ((self.scan_direction & 1) << 6)
            | ((self.edge_of_flight_line & 1) << 7);
        out.push(ret_byte);
        let class_byte = (self.classification & 0x1F)
            | ((self.synthetic & 1) << 5)
            | ((self.key_point & 1) << 6)
            | ((self.withheld & 1) << 7);
        out.push(class_byte);
        out.push(self.scan_angle_rank as u8);
        out.push(self.user_data);
        out.extend_from_slice(&self.point_source_id.to_le_bytes());
        out.extend_from_slice(&self.gps_time.to_le_bytes());
        out.extend_from_slice(&self.red.to_le_bytes());
        out.extend_from_slice(&self.green.to_le_bytes());
        out.extend_from_slice(&self.blue.to_le_bytes());
        out.push(self.wave_packet_index);
        out.extend_from_slice(&self.wave_offset.to_le_bytes());
        out.extend_from_slice(&self.wave_size.to_le_bytes());
        out.extend_from_slice(&self.wave_return_loc.to_le_bytes());
        out.extend_from_slice(&self.wave_xt.to_le_bytes());
        out.extend_from_slice(&self.wave_yt.to_le_bytes());
        out.extend_from_slice(&self.wave_zt.to_le_bytes());
        Ok(())
    }

    /// Decode one packed record; `bytes` must be exactly [`RECORD_LEN`].
    pub fn decode(h: &LasHeader, bytes: &[u8]) -> Result<Self, LasError> {
        if bytes.len() != RECORD_LEN {
            return Err(LasError::Truncated {
                what: "point record",
                expected: RECORD_LEN,
                got: bytes.len(),
            });
        }
        let i32_at = |o: usize| i32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
        let u16_at = |o: usize| u16::from_le_bytes(bytes[o..o + 2].try_into().unwrap());
        let f32_at = |o: usize| f32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
        let (x, y, z) = h.dequantise(i32_at(0), i32_at(4), i32_at(8));
        let ret_byte = bytes[14];
        let class_byte = bytes[15];
        Ok(PointRecord {
            x,
            y,
            z,
            intensity: u16_at(12),
            return_number: ret_byte & 0x7,
            number_of_returns: (ret_byte >> 3) & 0x7,
            scan_direction: (ret_byte >> 6) & 1,
            edge_of_flight_line: (ret_byte >> 7) & 1,
            classification: class_byte & 0x1F,
            synthetic: (class_byte >> 5) & 1,
            key_point: (class_byte >> 6) & 1,
            withheld: (class_byte >> 7) & 1,
            scan_angle_rank: bytes[16] as i8,
            user_data: bytes[17],
            point_source_id: u16_at(18),
            gps_time: f64::from_le_bytes(bytes[20..28].try_into().unwrap()),
            red: u16_at(28),
            green: u16_at(30),
            blue: u16_at(32),
            wave_packet_index: bytes[34],
            wave_offset: u64::from_le_bytes(bytes[35..43].try_into().unwrap()),
            wave_size: u32::from_le_bytes(bytes[43..47].try_into().unwrap()),
            wave_return_loc: f32_at(47),
            wave_xt: f32_at(51),
            wave_yt: f32_at(55),
            wave_zt: f32_at(59),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{Compression, LasHeader};

    fn header() -> LasHeader {
        let mut h = LasHeader::builder()
            .scale(0.01, 0.01, 0.01)
            .offset(100_000.0, 400_000.0, 0.0)
            .compression(Compression::None)
            .build();
        h.min = [100_000.0, 400_000.0, -10.0];
        h.max = [101_000.0, 401_000.0, 300.0];
        h
    }

    fn sample() -> PointRecord {
        PointRecord {
            x: 100_123.45,
            y: 400_987.65,
            z: 12.34,
            intensity: 1234,
            return_number: 2,
            number_of_returns: 5,
            scan_direction: 1,
            edge_of_flight_line: 1,
            classification: 6,
            synthetic: 1,
            key_point: 0,
            withheld: 1,
            scan_angle_rank: -15,
            user_data: 42,
            point_source_id: 77,
            gps_time: 123456.789,
            red: 300,
            green: 400,
            blue: 500,
            wave_packet_index: 3,
            wave_offset: 99999,
            wave_size: 512,
            wave_return_loc: 1.5,
            wave_xt: 0.1,
            wave_yt: 0.2,
            wave_zt: 0.9,
        }
    }

    #[test]
    fn record_len_matches_encoding() {
        let h = header();
        let mut buf = Vec::new();
        sample().encode(&h, &mut buf).unwrap();
        assert_eq!(buf.len(), RECORD_LEN);
    }

    #[test]
    fn roundtrip_within_quantisation() {
        let h = header();
        let mut buf = Vec::new();
        let rec = sample();
        rec.encode(&h, &mut buf).unwrap();
        let back = PointRecord::decode(&h, &buf).unwrap();
        // Coordinates roundtrip to the centimetre scale of the header.
        assert!((back.x - rec.x).abs() < 0.005 + 1e-9);
        assert!((back.y - rec.y).abs() < 0.005 + 1e-9);
        assert!((back.z - rec.z).abs() < 0.005 + 1e-9);
        // Every other attribute is exact.
        assert_eq!(back.intensity, rec.intensity);
        assert_eq!(back.return_number, rec.return_number);
        assert_eq!(back.number_of_returns, rec.number_of_returns);
        assert_eq!(back.scan_direction, rec.scan_direction);
        assert_eq!(back.edge_of_flight_line, rec.edge_of_flight_line);
        assert_eq!(back.classification, rec.classification);
        assert_eq!(back.synthetic, rec.synthetic);
        assert_eq!(back.key_point, rec.key_point);
        assert_eq!(back.withheld, rec.withheld);
        assert_eq!(back.scan_angle_rank, rec.scan_angle_rank);
        assert_eq!(back.user_data, rec.user_data);
        assert_eq!(back.point_source_id, rec.point_source_id);
        assert_eq!(back.gps_time, rec.gps_time);
        assert_eq!((back.red, back.green, back.blue), (300, 400, 500));
        assert_eq!(back.wave_packet_index, 3);
        assert_eq!(back.wave_offset, 99999);
        assert_eq!(back.wave_size, 512);
        assert_eq!(back.wave_return_loc, 1.5);
        assert_eq!((back.wave_xt, back.wave_yt, back.wave_zt), (0.1, 0.2, 0.9));
    }

    #[test]
    fn bit_fields_mask_out_of_range() {
        let h = header();
        let mut rec = sample();
        rec.return_number = 0xFF; // only 3 bits survive
        rec.classification = 0xFF; // only 5 bits survive
        let mut buf = Vec::new();
        rec.encode(&h, &mut buf).unwrap();
        let back = PointRecord::decode(&h, &buf).unwrap();
        assert_eq!(back.return_number, 7);
        assert_eq!(back.classification, 31);
    }

    #[test]
    fn coordinate_overflow_rejected() {
        let h = header();
        let mut rec = sample();
        rec.x = 1e12; // (1e12 - 1e5) / 0.01 overflows i32
        let mut buf = Vec::new();
        assert!(matches!(
            rec.encode(&h, &mut buf).unwrap_err(),
            LasError::CoordinateOverflow { axis: 'x', .. }
        ));
    }

    #[test]
    fn decode_wrong_length_rejected() {
        let h = header();
        assert!(matches!(
            PointRecord::decode(&h, &[0u8; 10]).unwrap_err(),
            LasError::Truncated { .. }
        ));
    }

    #[test]
    fn negative_scan_angle_roundtrips() {
        let h = header();
        let mut rec = sample();
        rec.scan_angle_rank = -90;
        let mut buf = Vec::new();
        rec.encode(&h, &mut buf).unwrap();
        assert_eq!(PointRecord::decode(&h, &buf).unwrap().scan_angle_rank, -90);
    }
}
