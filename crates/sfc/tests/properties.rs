//! Property-based tests of the space-filling-curve invariants.

use lidardb_sfc::{hilbert_decode, hilbert_encode, morton_decode, morton_encode, Quantizer};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn morton_bijective(x in any::<u32>(), y in any::<u32>()) {
        prop_assert_eq!(morton_decode(morton_encode(x, y)), (x, y));
    }

    #[test]
    fn hilbert_bijective(x in any::<u32>(), y in any::<u32>()) {
        prop_assert_eq!(hilbert_decode(hilbert_encode(x, y)), (x, y));
    }

    #[test]
    fn morton_keys_distinct(a in any::<(u32, u32)>(), b in any::<(u32, u32)>()) {
        prop_assume!(a != b);
        prop_assert_ne!(morton_encode(a.0, a.1), morton_encode(b.0, b.1));
        prop_assert_ne!(hilbert_encode(a.0, a.1), hilbert_encode(b.0, b.1));
    }

    #[test]
    fn hilbert_adjacent_keys_are_grid_neighbours(key in 0u64..u64::MAX) {
        // Consecutive Hilbert indexes are always 4-neighbours — the
        // defining property of the curve at any scale.
        let (x1, y1) = hilbert_decode(key);
        let (x2, y2) = hilbert_decode(key.wrapping_add(1));
        if key != u64::MAX {
            let dist = (i64::from(x1) - i64::from(x2)).abs()
                + (i64::from(y1) - i64::from(y2)).abs();
            prop_assert_eq!(dist, 1, "key {} -> ({},{}) vs ({},{})", key, x1, y1, x2, y2);
        }
    }

    #[test]
    fn quantizer_monotone_and_clamped(
        x1 in -1000.0f64..1000.0,
        x2 in -1000.0f64..1000.0,
        bits in 1u32..33,
    ) {
        let q = Quantizer::new(-500.0, -500.0, 500.0, 500.0, bits);
        let (c1, _) = q.cell(x1, 0.0);
        let (c2, _) = q.cell(x2, 0.0);
        if x1 <= x2 {
            prop_assert!(c1 <= c2, "monotone: {x1}->{c1}, {x2}->{c2}");
        }
        prop_assert!(u64::from(c1) < 1u64 << bits);
    }
}
