//! Hilbert curve encode/decode.
//!
//! The classic iterative quadrant-rotation algorithm (Sagan's construction,
//! the reference the paper cites for Oracle's Hilbert-sorted point-cloud
//! blocks). Unlike the Morton curve, every step of the Hilbert curve moves
//! to a 4-neighbour, which is what gives it its superior locality — the
//! exhaustive adjacency test below pins that property down.

/// Rotate/flip a quadrant of side `s` (power of two) appropriately.
#[inline]
fn rot(s: u64, x: &mut u64, y: &mut u64, rx: u64, ry: u64) {
    if ry == 0 {
        if rx == 1 {
            *x = (s - 1).wrapping_sub(*x);
            *y = (s - 1).wrapping_sub(*y);
        }
        std::mem::swap(x, y);
    }
}

/// Encode a point of the `2^order × 2^order` grid into its Hilbert index.
///
/// # Panics
/// Panics when a coordinate does not fit in `order` bits or `order > 32`.
pub fn hilbert_encode_order(order: u32, x: u32, y: u32) -> u64 {
    assert!((1..=32).contains(&order), "order must be in 1..=32");
    if order < 32 {
        assert!(
            (u64::from(x) < (1u64 << order)) && (u64::from(y) < (1u64 << order)),
            "coordinates must fit in {order} bits"
        );
    }
    let mut x = u64::from(x);
    let mut y = u64::from(y);
    let mut d: u64 = 0;
    let mut s: u64 = 1u64 << (order - 1);
    while s > 0 {
        let rx = u64::from(x & s > 0);
        let ry = u64::from(y & s > 0);
        d = d.wrapping_add(s.wrapping_mul(s).wrapping_mul((3 * rx) ^ ry));
        rot(s, &mut x, &mut y, rx, ry);
        s /= 2;
    }
    d
}

/// Decode a Hilbert index of the `2^order × 2^order` grid back to a point.
pub fn hilbert_decode_order(order: u32, key: u64) -> (u32, u32) {
    assert!((1..=32).contains(&order), "order must be in 1..=32");
    let mut t = key;
    let mut x: u64 = 0;
    let mut y: u64 = 0;
    let mut s: u64 = 1;
    while s < (1u64 << order) {
        let rx = 1 & (t / 2);
        let ry = 1 & (t ^ rx);
        rot(s, &mut x, &mut y, rx, ry);
        x += s * rx;
        y += s * ry;
        t /= 4;
        s *= 2;
    }
    (x as u32, y as u32)
}

/// Encode on the full 32-bit lattice (the curve order used by the system).
#[inline]
pub fn hilbert_encode(x: u32, y: u32) -> u64 {
    hilbert_encode_order(32, x, y)
}

/// Decode on the full 32-bit lattice.
#[inline]
pub fn hilbert_decode(key: u64) -> (u32, u32) {
    hilbert_decode_order(32, key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_quadrant_order1() {
        // Order-1 curve visits (0,0) (0,1) (1,1) (1,0).
        assert_eq!(hilbert_encode_order(1, 0, 0), 0);
        assert_eq!(hilbert_encode_order(1, 0, 1), 1);
        assert_eq!(hilbert_encode_order(1, 1, 1), 2);
        assert_eq!(hilbert_encode_order(1, 1, 0), 3);
    }

    #[test]
    fn exhaustive_bijection_and_adjacency_order6() {
        // 64x64 grid: the curve must visit every cell exactly once and every
        // consecutive pair of indexes must be 4-neighbours.
        let order = 6;
        let n = 1u32 << order;
        let mut seen = vec![false; (n * n) as usize];
        for y in 0..n {
            for x in 0..n {
                let d = hilbert_encode_order(order, x, y);
                assert!(d < u64::from(n * n));
                assert!(!seen[d as usize], "key collision at ({x},{y})");
                seen[d as usize] = true;
                assert_eq!(hilbert_decode_order(order, d), (x, y));
            }
        }
        assert!(seen.iter().all(|&s| s));
        let mut prev = hilbert_decode_order(order, 0);
        for d in 1..u64::from(n * n) {
            let cur = hilbert_decode_order(order, d);
            let dist = (i64::from(cur.0) - i64::from(prev.0)).abs()
                + (i64::from(cur.1) - i64::from(prev.1)).abs();
            assert_eq!(dist, 1, "step {d} jumps from {prev:?} to {cur:?}");
            prev = cur;
        }
    }

    #[test]
    fn full_order_roundtrip() {
        for &(x, y) in &[
            (0u32, 0u32),
            (1, 0),
            (u32::MAX, u32::MAX),
            (u32::MAX, 0),
            (0, u32::MAX),
            (0xCAFE_BABE, 0x0BAD_F00D),
        ] {
            let d = hilbert_encode(x, y);
            assert_eq!(hilbert_decode(d), (x, y), "({x},{y}) -> {d}");
        }
    }

    #[test]
    fn origin_maps_to_zero() {
        assert_eq!(hilbert_encode(0, 0), 0);
        assert_eq!(hilbert_decode(0), (0, 0));
    }

    #[test]
    #[should_panic(expected = "fit in")]
    fn out_of_range_coordinate_panics() {
        hilbert_encode_order(4, 16, 0);
    }

    #[test]
    fn orders_agree_on_prefix_grid() {
        // The order-k curve restricted to the lower-left quadrant is the
        // order-(k-1) curve (up to the known traversal); at least verify
        // bijectivity at several orders.
        for order in [2u32, 3, 8, 12] {
            let n = 1u32 << order;
            let pts = [
                (0, 0),
                (n - 1, 0),
                (0, n - 1),
                (n - 1, n - 1),
                (n / 2, n / 3),
            ];
            for &(x, y) in &pts {
                let d = hilbert_encode_order(order, x, y);
                assert_eq!(hilbert_decode_order(order, d), (x, y));
            }
        }
    }
}
