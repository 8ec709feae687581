//! Property-based tests of LAS / laz-lite I/O invariants.

use lidardb_las::{lazlite, Compression, LasHeader, PointRecord};
use proptest::prelude::*;

fn record() -> impl Strategy<Value = PointRecord> {
    (
        (-1000.0f64..1000.0, -1000.0f64..1000.0, -50.0f64..500.0),
        any::<u16>(),
        (0u8..8, 0u8..8, 0u8..2, 0u8..2),
        (0u8..32, 0u8..2, 0u8..2, 0u8..2),
        (any::<i8>(), any::<u8>(), any::<u16>()),
        any::<f64>(),
        (any::<u16>(), any::<u16>(), any::<u16>()),
        (any::<u8>(), any::<u64>(), any::<u32>()),
        (any::<f32>(), any::<f32>(), any::<f32>(), any::<f32>()),
    )
        .prop_map(
            |(
                (x, y, z),
                intensity,
                (return_number, number_of_returns, scan_direction, edge_of_flight_line),
                (classification, synthetic, key_point, withheld),
                (scan_angle_rank, user_data, point_source_id),
                gps_time,
                (red, green, blue),
                (wave_packet_index, wave_offset, wave_size),
                (wave_return_loc, wave_xt, wave_yt, wave_zt),
            )| PointRecord {
                x,
                y,
                z,
                intensity,
                return_number,
                number_of_returns,
                scan_direction,
                edge_of_flight_line,
                classification,
                synthetic,
                key_point,
                withheld,
                scan_angle_rank,
                user_data,
                point_source_id,
                gps_time,
                red,
                green,
                blue,
                wave_packet_index,
                wave_offset,
                wave_size,
                wave_return_loc,
                wave_xt,
                wave_yt,
                wave_zt,
            },
        )
}

fn header(c: Compression) -> LasHeader {
    let mut h = LasHeader::builder()
        .scale(0.001, 0.001, 0.001)
        .offset(0.0, 0.0, 0.0)
        .compression(c)
        .build();
    h.min = [-1000.0, -1000.0, -50.0];
    h.max = [1000.0, 1000.0, 500.0];
    h
}

fn assert_attrs_exact(a: &PointRecord, b: &PointRecord) {
    // Everything except coordinates roundtrips bit-exactly.
    assert_eq!(a.intensity, b.intensity);
    assert_eq!(a.return_number, b.return_number);
    assert_eq!(a.number_of_returns, b.number_of_returns);
    assert_eq!(a.scan_direction, b.scan_direction);
    assert_eq!(a.edge_of_flight_line, b.edge_of_flight_line);
    assert_eq!(a.classification, b.classification);
    assert_eq!(a.synthetic, b.synthetic);
    assert_eq!(a.key_point, b.key_point);
    assert_eq!(a.withheld, b.withheld);
    assert_eq!(a.scan_angle_rank, b.scan_angle_rank);
    assert_eq!(a.user_data, b.user_data);
    assert_eq!(a.point_source_id, b.point_source_id);
    assert_eq!(a.gps_time.to_bits(), b.gps_time.to_bits());
    assert_eq!((a.red, a.green, a.blue), (b.red, b.green, b.blue));
    assert_eq!(a.wave_packet_index, b.wave_packet_index);
    assert_eq!(a.wave_offset, b.wave_offset);
    assert_eq!(a.wave_size, b.wave_size);
    assert_eq!(a.wave_return_loc.to_bits(), b.wave_return_loc.to_bits());
    assert_eq!(a.wave_xt.to_bits(), b.wave_xt.to_bits());
    assert_eq!(a.wave_yt.to_bits(), b.wave_yt.to_bits());
    assert_eq!(a.wave_zt.to_bits(), b.wave_zt.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_record_roundtrip(rec in record()) {
        let h = header(Compression::None);
        let mut buf = Vec::new();
        rec.encode(&h, &mut buf).unwrap();
        let back = PointRecord::decode(&h, &buf).unwrap();
        prop_assert!((back.x - rec.x).abs() <= 0.0005 + 1e-9);
        prop_assert!((back.y - rec.y).abs() <= 0.0005 + 1e-9);
        prop_assert!((back.z - rec.z).abs() <= 0.0005 + 1e-9);
        assert_attrs_exact(&rec, &back);
    }

    #[test]
    fn lazlite_roundtrip(recs in prop::collection::vec(record(), 0..300)) {
        let h = header(Compression::LazLite);
        let blob = lazlite::compress(&h, &recs).unwrap();
        let back = lazlite::decompress(&h, &blob).unwrap();
        prop_assert_eq!(back.len(), recs.len());
        for (a, b) in recs.iter().zip(&back) {
            prop_assert!((a.x - b.x).abs() <= 0.0005 + 1e-9);
            assert_attrs_exact(a, b);
        }
    }

    #[test]
    fn lazlite_range_decode_matches_full(
        recs in prop::collection::vec(record(), 1..300),
        s in 0usize..300,
        e in 0usize..300,
    ) {
        let h = header(Compression::LazLite);
        let blob = lazlite::compress(&h, &recs).unwrap();
        let full = lazlite::decompress(&h, &blob).unwrap();
        let (s, e) = (s.min(recs.len()), e.min(recs.len()));
        let (s, e) = if s <= e { (s, e) } else { (e, s) };
        let part = lazlite::decompress_range(&h, &blob, s, e).unwrap();
        prop_assert_eq!(part, full[s..e].to_vec());
    }

    #[test]
    fn truncated_lazlite_never_panics(
        recs in prop::collection::vec(record(), 1..50),
        cut_frac in 0.0f64..1.0,
    ) {
        let h = header(Compression::LazLite);
        let blob = lazlite::compress(&h, &recs).unwrap();
        let cut = (blob.len() as f64 * cut_frac) as usize;
        // Must return Ok (only if cut == len) or a typed error — no panic.
        let result = lazlite::decompress(&h, &blob[..cut]);
        if cut == blob.len() {
            prop_assert!(result.is_ok());
        } else {
            prop_assert!(result.is_err());
        }
    }

    #[test]
    fn header_roundtrip(
        scale in 1e-6f64..1.0,
        off in -1e6f64..1e6,
        np in any::<u64>(),
    ) {
        let mut h = LasHeader::builder()
            .scale(scale, scale * 2.0, scale / 2.0)
            .offset(off, -off, 0.0)
            .compression(Compression::LazLite)
            .build();
        h.min = [-1.0, -2.0, -3.0];
        h.max = [4.0, 5.0, 6.0];
        h.num_points = np;
        let back = LasHeader::decode(&h.encode()).unwrap();
        prop_assert_eq!(back, h);
    }
}
