//! Frame-of-reference + bit packing for integer columns.
//!
//! The column is cut into fixed blocks (1024 values). Each block stores its
//! minimum as a 64-bit reference and packs `v - min` into the smallest bit
//! width that fits the block's range. Slowly varying attributes (GPS time,
//! scaled coordinates along a flight line) pack into a handful of bits per
//! value. This codec is also the core of the `laz-lite` file format.

use crate::compress::CodecStats;
use crate::error::StorageError;

/// Number of values per packed block.
pub const BLOCK: usize = 1024;

/// A frame-of-reference bit-packed encoding of an `i64` sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ForPacked {
    len: usize,
    /// Per-block minima (references).
    refs: Vec<i64>,
    /// Per-block bit widths (0..=64).
    widths: Vec<u8>,
    /// Per-block offset into `words` (in u64 words).
    offsets: Vec<usize>,
    /// Packed payload.
    words: Vec<u64>,
}

fn bits_needed(max_delta: u64) -> u8 {
    (64 - max_delta.leading_zeros()) as u8
}

impl ForPacked {
    /// Encode a sequence of `i64` values.
    pub fn encode(data: &[i64]) -> Self {
        let nblocks = data.len().div_ceil(BLOCK);
        let mut refs = Vec::with_capacity(nblocks);
        let mut widths = Vec::with_capacity(nblocks);
        let mut offsets = Vec::with_capacity(nblocks);
        let mut words: Vec<u64> = Vec::new();
        for block in data.chunks(BLOCK) {
            let min = *block.iter().min().expect("non-empty chunk");
            // wrapping_sub as u64 handles the full i64 range (e.g. min =
            // i64::MIN, v = i64::MAX gives delta = u64::MAX).
            let max_delta = block
                .iter()
                .map(|&v| (v as u64).wrapping_sub(min as u64))
                .max()
                .expect("non-empty chunk");
            let width = bits_needed(max_delta);
            refs.push(min);
            widths.push(width);
            offsets.push(words.len());
            if width > 0 {
                let mut acc: u64 = 0;
                let mut used: u32 = 0;
                for &v in block {
                    let delta = (v as u64).wrapping_sub(min as u64);
                    acc |= delta.checked_shl(used).unwrap_or(0);
                    let take = 64 - used;
                    if u32::from(width) >= take {
                        words.push(acc);
                        acc = if take < 64 { delta >> take } else { 0 };
                        used = u32::from(width) - take;
                    } else {
                        used += u32::from(width);
                    }
                }
                if used > 0 {
                    words.push(acc);
                }
            }
        }
        ForPacked {
            len: data.len(),
            refs,
            widths,
            offsets,
            words,
        }
    }

    /// Number of encoded values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the encoding holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn unpack_one(&self, block: usize, idx_in_block: usize) -> i64 {
        let width = u64::from(self.widths[block]);
        if width == 0 {
            return self.refs[block];
        }
        let bit = idx_in_block as u64 * width;
        let word = self.offsets[block] + (bit / 64) as usize;
        let shift = bit % 64;
        let mut delta = self.words[word] >> shift;
        let got = 64 - shift;
        if width > got {
            delta |= self.words[word + 1] << got;
        }
        if width < 64 {
            delta &= (1u64 << width) - 1;
        }
        (self.refs[block] as u64).wrapping_add(delta) as i64
    }

    /// Random access to the value at `row`; `None` out of bounds.
    pub fn get(&self, row: usize) -> Option<i64> {
        if row >= self.len {
            return None;
        }
        Some(self.unpack_one(row / BLOCK, row % BLOCK))
    }

    /// Decode the full sequence.
    pub fn decode(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.len);
        for row in 0..self.len {
            out.push(self.unpack_one(row / BLOCK, row % BLOCK));
        }
        out
    }

    /// Serialise to a little-endian byte stream (used by `laz-lite`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        out.extend_from_slice(&(self.refs.len() as u64).to_le_bytes());
        for &r in &self.refs {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.extend_from_slice(&self.widths);
        out.extend_from_slice(&(self.words.len() as u64).to_le_bytes());
        for &w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserialise from [`ForPacked::to_bytes`] output, validating structure.
    pub fn from_bytes(bytes: &[u8]) -> Result<(Self, usize), StorageError> {
        let corrupt = || StorageError::CorruptEncoding("forpack");
        fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], StorageError> {
            let end = pos
                .checked_add(n)
                .ok_or(StorageError::CorruptEncoding("forpack"))?;
            let s = bytes
                .get(*pos..end)
                .ok_or(StorageError::CorruptEncoding("forpack"))?;
            *pos = end;
            Ok(s)
        }
        let mut pos = 0usize;
        let len = u64::from_le_bytes(take(bytes, &mut pos, 8)?.try_into().unwrap()) as usize;
        let nblocks = u64::from_le_bytes(take(bytes, &mut pos, 8)?.try_into().unwrap()) as usize;
        if nblocks != len.div_ceil(BLOCK) {
            return Err(corrupt());
        }
        // `nblocks`/`nwords` are untrusted wire counts: clamp the
        // pre-allocation to what the remaining input can actually hold
        // (8 bytes per element), so a tiny stream declaring u64::MAX
        // elements fails the bounds check in `take` instead of attempting
        // a multi-GB allocation up front.
        let fits = |pos: usize, n: usize| n.min(bytes.len().saturating_sub(pos) / 8);
        let mut refs = Vec::with_capacity(fits(pos, nblocks));
        for _ in 0..nblocks {
            refs.push(i64::from_le_bytes(
                take(bytes, &mut pos, 8)?.try_into().unwrap(),
            ));
        }
        let widths = take(bytes, &mut pos, nblocks)?.to_vec();
        if widths.iter().any(|&w| w > 64) {
            return Err(corrupt());
        }
        let nwords = u64::from_le_bytes(take(bytes, &mut pos, 8)?.try_into().unwrap()) as usize;
        let mut words = Vec::with_capacity(fits(pos, nwords));
        for _ in 0..nwords {
            words.push(u64::from_le_bytes(
                take(bytes, &mut pos, 8)?.try_into().unwrap(),
            ));
        }
        // Recompute offsets and validate the payload covers every block.
        let mut offsets = Vec::with_capacity(nblocks);
        let mut off = 0usize;
        for (b, &w) in widths.iter().enumerate() {
            offsets.push(off);
            let vals = if b + 1 == nblocks && !len.is_multiple_of(BLOCK) {
                len % BLOCK
            } else {
                BLOCK
            };
            off += (vals * w as usize).div_ceil(64);
        }
        if off != nwords {
            return Err(corrupt());
        }
        Ok((
            ForPacked {
                len,
                refs,
                widths,
                offsets,
                words,
            },
            pos,
        ))
    }

    /// Size accounting for E2 reporting.
    pub fn stats(&self) -> CodecStats {
        CodecStats {
            raw_bytes: self.len * 8,
            encoded_bytes: self.refs.len() * 8 + self.widths.len() + self.words.len() * 8 + 24,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[i64]) {
        let p = ForPacked::encode(data);
        assert_eq!(p.decode(), data, "decode mismatch");
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(p.get(i), Some(v), "get({i})");
        }
        assert_eq!(p.get(data.len()), None);
        let bytes = p.to_bytes();
        let (q, consumed) = ForPacked::from_bytes(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(q, p);
    }

    #[test]
    fn constant_block_uses_zero_bits() {
        let data = vec![42i64; 3000];
        let p = ForPacked::encode(&data);
        assert!(p.words.is_empty());
        roundtrip(&data);
    }

    #[test]
    fn small_deltas_pack_tightly() {
        let data: Vec<i64> = (0..5000).map(|i| 1_000_000 + (i % 7)).collect();
        let p = ForPacked::encode(&data);
        assert!(p.stats().ratio() > 10.0, "ratio {}", p.stats().ratio());
        roundtrip(&data);
    }

    #[test]
    fn negative_and_extreme_values() {
        let data = vec![i64::MIN, i64::MAX, -1, 0, 1, i64::MIN, i64::MAX];
        roundtrip(&data);
    }

    #[test]
    fn non_multiple_of_block() {
        let data: Vec<i64> = (0..(BLOCK as i64 + 17)).map(|i| i * 3 - 500).collect();
        roundtrip(&data);
    }

    #[test]
    fn empty_sequence() {
        roundtrip(&[]);
    }

    #[test]
    fn width_boundaries() {
        // Exactly 1, 63, 64-bit deltas.
        roundtrip(&[0, 1, 0, 1]);
        roundtrip(&[0, (1i64 << 62) - 1 + (1i64 << 62)]); // delta 2^63-1
        roundtrip(&[i64::MIN, i64::MAX]); // delta u64::MAX -> width 64
    }

    #[test]
    fn corrupt_bytes_rejected() {
        let p = ForPacked::encode(&[1, 2, 3]);
        let mut bytes = p.to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(ForPacked::from_bytes(&bytes).is_err());
        assert!(ForPacked::from_bytes(&[1, 2, 3]).is_err());
        // Corrupt a width to an invalid value.
        let mut bytes = p.to_bytes();
        bytes[24] = 99; // width byte of block 0 (after len+nblocks+1 ref)
        assert!(ForPacked::from_bytes(&bytes).is_err());
    }

    /// Regression: `from_bytes` used to pass the untrusted `nblocks` /
    /// `nwords` wire counts straight to `Vec::with_capacity` before any
    /// payload bounds check, so a 24-byte corrupt stream claiming
    /// `u64::MAX` words attempted a multi-GB allocation (capacity
    /// overflow abort) instead of returning `CorruptEncoding`. Capacities
    /// are now clamped to what the remaining input can hold.
    #[test]
    fn huge_declared_counts_are_rejected_without_allocating() {
        // len=0 / nblocks=0 (consistent), then u64::MAX declared words —
        // exactly 24 bytes of input.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(bytes.len(), 24);
        assert!(ForPacked::from_bytes(&bytes).is_err());

        // A huge (self-consistent) len/nblocks pair on a 16-byte stream:
        // the refs pre-allocation must likewise be clamped.
        let len = u64::MAX;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&((len as usize).div_ceil(BLOCK) as u64).to_le_bytes());
        assert!(ForPacked::from_bytes(&bytes).is_err());
    }

    #[test]
    fn bits_needed_edges() {
        assert_eq!(bits_needed(0), 0);
        assert_eq!(bits_needed(1), 1);
        assert_eq!(bits_needed(2), 2);
        assert_eq!(bits_needed(u64::MAX), 64);
    }
}
