//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! Used to checksum column dumps, manifests, WAL frames and wire frames;
//! any single-bit error is detected, as are all burst errors up to 32 bits.
//!
//! Slicing-by-16: sixteen compile-time tables fold sixteen bytes per step
//! with independent lookups instead of one dependent lookup per byte; the
//! tail runs the bytewise loop. Every input checksums to the bytewise
//! loop's value, so files and frames written by either stay valid.

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        // Byte `j` of the block, the first four folded with the running
        // CRC, looks up table `15 - j`.
        let head = (c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]])).to_le_bytes();
        let block = head.iter().chain(&b[4..]);
        c = TABLES.iter().rev().zip(block).fold(0, |c, (t, &x)| c ^ t[x as usize]);
    }
    for &b in blocks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-lookup-per-byte loop the sliced kernel replaced.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn noise(n: usize, mut s: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        for f in [crc32, bytewise] {
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(f(b""), 0);
            assert_eq!(f(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        }
    }

    #[test]
    fn sliced_equals_bytewise_at_every_short_length_and_offset() {
        let buf = noise(16 + 64, 7);
        for off in 0..16 {
            for len in 0..=64 {
                let s = &buf[off..off + len];
                assert_eq!(crc32(s), bytewise(s), "offset {off}, length {len}");
            }
        }
    }

    #[test]
    fn sliced_equals_bytewise_on_random_slices() {
        let buf = noise(1 << 20, 11);
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (s >> 33) as usize
        };
        for _ in 0..200 {
            // Lengths spread over every scale up to 1 MiB.
            let len = next() % ((1 << (next() % 21)) + 1);
            let start = next() % (buf.len() - len + 1);
            let slice = &buf[start..start + len];
            assert_eq!(crc32(slice), bytewise(slice), "start {start}, length {len}");
        }
    }

    #[test]
    fn detects_any_single_bit_flip() {
        let data: Vec<u8> = (0u16..300).map(|i| (i * 7) as u8).collect();
        let base = crc32(&data);
        for byte in (0..data.len()).step_by(17) {
            for bit in 0..8 {
                let mut c = data.clone();
                c[byte] ^= 1 << bit;
                assert_ne!(crc32(&c), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
