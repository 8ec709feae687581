//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! Used to checksum column dumps, manifests, WAL frames and wire frames;
//! any single-bit error is detected, as are all burst errors up to 32 bits.
//!
//! Two kernels, one value. On x86-64 hosts with `pclmulqdq` and `sse4.1`
//! (detected at runtime) inputs of [`FOLD_MIN`] bytes or more take a
//! carry-less-multiply fold: four 128-bit lanes fold 64 bytes per step by
//! multiplying with `x^k mod P` constants, then reduce to 32 bits with a
//! Barrett step. Everything else, on every host, runs the portable
//! slicing-by-16 kernel: sixteen compile-time tables fold sixteen bytes per
//! step with independent lookups. Both compute the same polynomial
//! remainder as the bytewise loop, so files and frames written by any of
//! them stay valid.

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
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

/// Shortest input the carry-less fold takes: its four lanes start full.
const FOLD_MIN: usize = 64;

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_MIN && clmul::available() {
        // SAFETY: `available` confirmed the CPU has pclmulqdq and sse4.1,
        // the features `clmul::update` is compiled for.
        return !unsafe { clmul::update(!0, bytes) };
    }
    !sliced(!0, bytes)
}

/// The portable kernel: advance the CRC register `c` over `bytes`.
fn sliced(mut c: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        // Byte `j` of the block, the first four folded with the running
        // CRC, looks up table `15 - j`.
        let head = (c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]])).to_le_bytes();
        let block = head.iter().chain(&b[4..]);
        c = TABLES
            .iter()
            .rev()
            .zip(block)
            .fold(0, |c, (t, &x)| c ^ t[x as usize]);
    }
    for &b in blocks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// `x^n mod P(x)` for the normal-order polynomial `0x1_04C1_1DB7`,
    /// bit-reflected and shifted left by one: the multiplier that moves a
    /// reflected 64-bit lane `n - 64` bits further along the message.
    const fn fold_key(n: u32) -> i64 {
        let mut r: u64 = 1;
        let mut i = 0;
        while i < n {
            r <<= 1;
            if r & (1 << 32) != 0 {
                r ^= 0x1_04C1_1DB7;
            }
            i += 1;
        }
        ((r as u32).reverse_bits() as i64) << 1
    }

    /// `x^64 / P(x)` (the Barrett quotient μ), bit-reflected over 33 bits.
    pub(super) const MU: i64 = {
        let (mut num, mut q): (u128, u64) = (1 << 64, 0);
        while num >> 32 != 0 {
            let shift = 127 - num.leading_zeros() - 32;
            q |= 1 << shift;
            num ^= 0x1_04C1_1DB7u128 << shift;
        }
        (q.reverse_bits() >> 31) as i64
    };

    /// `P(x)` bit-reflected over 33 bits.
    const POLY: i64 = 0x1_DB71_0641;

    /// Fold one lane 512 bits forward (four lanes in flight).
    pub(super) const K1: i64 = fold_key(4 * 128 + 32);
    pub(super) const K2: i64 = fold_key(4 * 128 - 32);
    /// Fold one lane 128 bits forward.
    pub(super) const K3: i64 = fold_key(128 + 32);
    pub(super) const K4: i64 = fold_key(128 - 32);
    /// Fold the low 32 bits of a 96-bit remainder 64 bits forward.
    pub(super) const K5: i64 = fold_key(64);

    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Load 16 message bytes as one reflected lane.
    #[inline(always)]
    fn load(b: &[u8]) -> __m128i {
        assert!(b.len() >= 16);
        // SAFETY: `b` holds at least 16 readable bytes (asserted above) and
        // `loadu` has no alignment requirement.
        unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
    }

    /// `a` folded forward by the pair of keys in `k`, added to lane `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// Advance the CRC register `c` over `bytes` (at least
    /// [`super::FOLD_MIN`] long); the tail past the last whole 16-byte
    /// block runs the portable kernel.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(c: u32, bytes: &[u8]) -> u32 {
        debug_assert!(bytes.len() >= super::FOLD_MIN);
        let mut blocks = bytes.chunks_exact(64);
        let first = blocks.next().expect("at least one 64-byte block");
        let mut x = [0, 16, 32, 48].map(|at| load(&first[at..]));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for b in &mut blocks {
            for (lane, at) in x.iter_mut().zip([0, 16, 32, 48]) {
                *lane = fold(*lane, load(&b[at..]), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        let mut rest = blocks.remainder().chunks_exact(16);
        for b in &mut rest {
            acc = fold(acc, load(b), k3k4);
        }
        // 128 → 96 bits: the low lane moves 64 bits on, onto the high one.
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k3k4, 0x10),
            _mm_srli_si128(acc, 8),
        );
        // 96 → 64 bits: the low 32 bits move 64 bits on.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(acc, 4),
        );
        // Barrett reduction 64 → 32 bits (reflected: the result is the
        // upper half of the low 64-bit lane).
        let pu = _mm_set_epi64x(MU, POLY);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32;
        super::sliced(c, rest.remainder())
    }
}

/// The one-lookup-per-byte loop both kernels must agree with (tests
/// here and of every checksummed format).
#[cfg(test)]
pub(crate) fn bytewise(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kernel this host can run, by name: the portable one always,
    /// the carry-less fold where the CPU has it, and the dispatcher.
    #[allow(clippy::type_complexity)]
    fn kernels() -> Vec<(&'static str, fn(&[u8]) -> u32)> {
        let mut ks: Vec<(&'static str, fn(&[u8]) -> u32)> =
            vec![("sliced", |b| !sliced(!0, b)), ("crc32", crc32)];
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            ks.push(("clmul", |b| {
                if b.len() < FOLD_MIN {
                    return bytewise(b);
                }
                // SAFETY: `available` confirmed pclmulqdq and sse4.1.
                !unsafe { clmul::update(!0, b) }
            }));
        }
        ks
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
        for (name, f) in kernels() {
            assert_eq!(f(b"123456789"), 0xCBF4_3926, "{name}");
            assert_eq!(f(b""), 0, "{name}");
            assert_eq!(
                f(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339,
                "{name}"
            );
            assert_eq!(f(&[0u8; 4096]), bytewise(&[0u8; 4096]), "{name}");
        }
    }

    #[test]
    fn every_kernel_equals_bytewise_at_every_length_to_512_and_offset() {
        let buf = noise(16 + 512, 7);
        for (name, f) in kernels() {
            for off in 0..16 {
                for len in 0..=512 {
                    let s = &buf[off..off + len];
                    assert_eq!(f(s), bytewise(s), "{name}: offset {off}, length {len}");
                }
            }
        }
    }

    #[test]
    fn every_kernel_equals_bytewise_on_random_slices() {
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
            let want = bytewise(slice);
            for (name, f) in kernels() {
                assert_eq!(f(slice), want, "{name}: start {start}, length {len}");
            }
        }
    }

    /// The fold constants are `x^k mod P` at the exponents the lane
    /// distances name; pinned against their published values.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_match_their_derivation() {
        use clmul::*;
        assert_eq!(
            [K1, K2, K3, K4, K5, MU],
            [
                0x1_5444_2BD4,
                0x1_C6E4_1596,
                0x1_7519_97D0,
                0x0_CCAA_009E,
                0x1_63CD_6124,
                0x1_F701_1641
            ]
        );
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
