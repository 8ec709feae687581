//! Storage-overhead accounting for imprints.
//!
//! §3.2 of the paper: *"Imprints storage comes with a 5-12% storage
//! overhead."* Experiment E2 reproduces this number on AHN2-like columns.

use lidardb_storage::Native;

use crate::imprint::Imprints;

/// Size and compression accounting for one imprint index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImprintStats {
    /// Payload size of the indexed column in bytes.
    pub column_bytes: usize,
    /// Total index size in bytes (vectors + dictionary + borders).
    pub index_bytes: usize,
    /// Number of cachelines covered.
    pub num_lines: usize,
    /// Number of imprint vectors actually stored after compression.
    pub num_vectors: usize,
    /// Number of cacheline-dictionary entries.
    pub num_dict_entries: usize,
    /// Number of bins in use.
    pub num_bins: usize,
}

impl ImprintStats {
    /// Gather statistics for an index over `data`.
    pub fn of<T: Native>(imp: &Imprints<T>) -> Self {
        ImprintStats {
            column_bytes: imp.len() * T::PHYS.size(),
            index_bytes: imp.byte_size(),
            num_lines: imp.num_lines(),
            num_vectors: imp.num_vectors(),
            num_dict_entries: imp.num_dict_entries(),
            num_bins: imp.bins().num_bins(),
        }
    }

    /// Index size as a fraction of the column size (the paper's
    /// "storage overhead": 0.05–0.12 on real data).
    pub fn overhead(&self) -> f64 {
        if self.column_bytes == 0 {
            0.0
        } else {
            self.index_bytes as f64 / self.column_bytes as f64
        }
    }

    /// Compression ratio of the vector array: cachelines per stored vector.
    pub fn vector_compression(&self) -> f64 {
        if self.num_vectors == 0 {
            1.0
        } else {
            self.num_lines as f64 / self.num_vectors as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_small_on_clustered_data() {
        let data: Vec<i64> = (0..100_000).collect();
        let imp = Imprints::build(&data);
        let s = ImprintStats::of(&imp);
        assert_eq!(s.column_bytes, 800_000);
        assert!(
            s.overhead() < 0.15,
            "overhead {:.3} should be in the paper's band",
            s.overhead()
        );
        assert!(s.vector_compression() > 1.0);
    }

    #[test]
    fn empty_column_stats() {
        let imp = Imprints::<f64>::build(&[]);
        let s = ImprintStats::of(&imp);
        assert_eq!(s.overhead(), 0.0);
    }
}
