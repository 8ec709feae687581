//! Run-length encoding for columns.
//!
//! Runs are capped at `u32::MAX` values; a longer run simply spans several
//! entries. Decoding is exposed both as full materialisation and as a
//! value-at-row accessor with run-skipping (binary search over cumulative
//! offsets), so a compressed cold column can still answer point lookups.

use crate::compress::CodecStats;
use crate::types::Native;

/// A run-length encoded column of `T`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rle<T> {
    /// Distinct consecutive values.
    values: Vec<T>,
    /// Exclusive cumulative lengths: `ends[i]` is the first row *after* run
    /// `i`. Kept cumulative so `get` can binary-search.
    ends: Vec<u64>,
}

impl<T: Native> Rle<T> {
    /// Encode a slice. Equality for runs uses `total_cmp == Equal`, so NaN
    /// runs compress like any other value.
    pub fn encode(data: &[T]) -> Self {
        let mut values = Vec::new();
        let mut ends: Vec<u64> = Vec::new();
        let mut iter = data.iter();
        if let Some(&first) = iter.next() {
            values.push(first);
            let mut count: u64 = 1;
            let mut current = first;
            for &v in iter {
                if v.total_cmp(&current).is_eq() && count < u32::MAX as u64 {
                    count += 1;
                } else {
                    let prev_end = ends.last().copied().unwrap_or(0);
                    ends.push(prev_end + count);
                    values.push(v);
                    current = v;
                    count = 1;
                }
            }
            let prev_end = ends.last().copied().unwrap_or(0);
            ends.push(prev_end + count);
        }
        Rle { values, ends }
    }

    /// Number of encoded rows.
    pub fn len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0) as usize
    }

    /// Whether the encoding holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Random access to the value at `row`; `None` out of bounds.
    pub fn get(&self, row: usize) -> Option<T> {
        if row >= self.len() {
            return None;
        }
        let run = self.ends.partition_point(|&e| e <= row as u64);
        Some(self.values[run])
    }

    /// Decode the full column.
    pub fn decode(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        let mut start = 0u64;
        for (v, &end) in self.values.iter().zip(&self.ends) {
            for _ in start..end {
                out.push(*v);
            }
            start = end;
        }
        out
    }

    /// Iterate `(value, run_length)` pairs.
    pub fn runs(&self) -> impl Iterator<Item = (T, u64)> + '_ {
        let mut start = 0u64;
        self.values.iter().zip(&self.ends).map(move |(v, &end)| {
            let len = end - start;
            start = end;
            (*v, len)
        })
    }

    /// Size accounting for E2 reporting.
    pub fn stats(&self) -> CodecStats {
        CodecStats {
            raw_bytes: self.len() * std::mem::size_of::<T>(),
            encoded_bytes: self.values.len() * std::mem::size_of::<T>()
                + self.ends.len() * std::mem::size_of::<u64>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let data = vec![2u8, 2, 2, 6, 6, 9, 2, 2];
        let rle = Rle::encode(&data);
        assert_eq!(rle.values.len(), 4);
        assert_eq!(rle.decode(), data);
        assert_eq!(rle.len(), 8);
    }

    #[test]
    fn empty_and_single() {
        let rle = Rle::<i32>::encode(&[]);
        assert!(rle.is_empty());
        assert_eq!(rle.decode(), Vec::<i32>::new());
        assert_eq!(rle.get(0), None);
        let rle = Rle::encode(&[7.0f64]);
        assert_eq!(rle.decode(), vec![7.0]);
        assert_eq!(rle.get(0), Some(7.0));
    }

    #[test]
    fn random_access_matches_decode() {
        let data: Vec<u16> = (0..500).map(|i| (i / 37) as u16).collect();
        let rle = Rle::encode(&data);
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(rle.get(i), Some(v), "row {i}");
        }
        assert_eq!(rle.get(500), None);
    }

    #[test]
    fn nan_runs_compress() {
        let data = vec![f64::NAN, f64::NAN, 1.0, f64::NAN];
        let rle = Rle::encode(&data);
        assert_eq!(rle.values.len(), 3);
        let dec = rle.decode();
        assert!(dec[0].is_nan() && dec[1].is_nan() && dec[3].is_nan());
        assert_eq!(dec[2], 1.0);
    }

    #[test]
    fn runs_iterator() {
        let rle = Rle::encode(&[1i32, 1, 2, 3, 3, 3]);
        let runs: Vec<_> = rle.runs().collect();
        assert_eq!(runs, vec![(1, 2), (2, 1), (3, 3)]);
    }

    #[test]
    fn stats_reward_long_runs() {
        let data = vec![5u32; 10_000];
        let s = Rle::encode(&data).stats();
        assert_eq!(s.raw_bytes, 40_000);
        assert!(s.ratio() > 1000.0);
    }
}
