//! Property-based tests of the storage substrate invariants.

use lidardb_storage::compress::{forpack::ForPacked, rle::Rle};
use lidardb_storage::scan;
use lidardb_storage::{Column, PhysicalType};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rle_roundtrip_is_identity(data in prop::collection::vec(0u16..50, 0..2000)) {
        let rle = Rle::encode(&data);
        prop_assert_eq!(rle.decode(), data.clone());
        prop_assert_eq!(rle.len(), data.len());
        for (i, &v) in data.iter().enumerate() {
            prop_assert_eq!(rle.get(i), Some(v));
        }
    }

    #[test]
    fn forpack_roundtrip_and_serialisation(
        data in prop::collection::vec(any::<i64>(), 0..3000)
    ) {
        let p = ForPacked::encode(&data);
        prop_assert_eq!(p.decode(), data.clone());
        let bytes = p.to_bytes();
        let (q, consumed) = ForPacked::from_bytes(&bytes).unwrap();
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(q.decode(), data);
    }

    #[test]
    fn forpack_random_access(data in prop::collection::vec(-1000i64..1000, 1..2000)) {
        let p = ForPacked::encode(&data);
        for i in (0..data.len()).step_by(97) {
            prop_assert_eq!(p.get(i), Some(data[i]));
        }
        prop_assert_eq!(p.get(data.len()), None);
    }

    #[test]
    fn scan_kernels_match_bruteforce(
        points in prop::collection::vec((-100i32..100, -100i32..100), 0..1000),
        bounds in prop::collection::vec(-120i32..120, 4..5),
        cut in 0usize..1000,
        skip_x in prop::bool::ANY,
        skip_y in prop::bool::ANY,
    ) {
        let xs: Vec<f64> = points.iter().map(|p| f64::from(p.0) / 4.0).collect();
        let ys: Vec<f64> = points.iter().map(|p| f64::from(p.1) / 4.0).collect();
        let (x0, x1) = (f64::from(bounds[0].min(bounds[1])), f64::from(bounds[0].max(bounds[1])));
        let (y0, y1) = (f64::from(bounds[2].min(bounds[3])), f64::from(bounds[2].max(bounds[3])));
        let x = (!skip_x).then_some((x0, x1));
        let y = (!skip_y).then_some((y0, y1));
        // Two runs split at an arbitrary row, as two candidate runs are.
        let n = xs.len();
        let cut = cut.min(n);
        let mut sel = Vec::new();
        scan::bbox_scan(&xs, &ys, 0..cut, x, y, &mut sel);
        scan::bbox_scan(&xs, &ys, cut..n, x, y, &mut sel);
        let oracle: Vec<usize> = (0..n)
            .filter(|&i| skip_x || (xs[i] >= x0 && xs[i] <= x1))
            .filter(|&i| skip_y || (ys[i] >= y0 && ys[i] <= y1))
            .collect();
        prop_assert_eq!(&sel, &oracle);
    }

    #[test]
    fn column_binary_dump_roundtrip(
        data in prop::collection::vec(any::<f64>(), 0..500)
    ) {
        let col: Column = data.iter().copied().collect();
        let bytes = col.to_le_bytes();
        let mut col2 = Column::new(PhysicalType::F64);
        col2.extend_from_le_bytes(&bytes).unwrap();
        // Bit-exact (NaN-safe) comparison.
        let a = col.as_slice::<f64>().unwrap();
        let b = col2.as_slice::<f64>().unwrap();
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn gather_selects_expected_rows(
        data in prop::collection::vec(any::<i32>(), 1..300),
        picks in prop::collection::vec(0usize..300, 0..100),
    ) {
        let picks: Vec<usize> = picks.into_iter().filter(|&i| i < data.len()).collect();
        let col: Column = data.iter().copied().collect();
        let picked = col.gather(&picks);
        let got = picked.as_slice::<i32>().unwrap();
        for (k, &i) in picks.iter().enumerate() {
            prop_assert_eq!(got[k], data[i]);
        }
    }
}
