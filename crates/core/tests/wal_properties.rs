//! Property tests for WAL recovery: for *any* ingest history and *any*
//! damage to the log tail (truncation at an arbitrary byte, a single bit
//! flip anywhere), reopening recovers **exactly the longest committed
//! frame prefix** — never a partial batch, never a ghost row, never an
//! error that silently replays damaged data.
//!
//! The expected prefix is computed independently from the frame layout
//! (`header | [32-byte frame header + payload]*`), so these tests would
//! catch a decoder that "helpfully" resynchronises past damage.

use lidardb_core::{wal, Durability, PointCloud};
use lidardb_las::{point_schema, PointRecord};
use lidardb_test_support::ScratchDir;
use proptest::prelude::*;

// v02 layout: header magic + base_rows + ledger_count + crc (an empty
// ledger — these logs carry no idempotency tokens), frame header
// payload_len + crc + seq + end_rows + token.
const WAL_HEADER: usize = 8 + 8 + 4 + 4;
const FRAME_HEADER: usize = 4 + 4 + 8 + 8 + 8;

fn row_bytes() -> usize {
    point_schema().fields().iter().map(|f| f.ptype.size()).sum()
}

/// `n` points whose values encode their global row index, so a recovered
/// row can be checked byte-for-byte against the workload.
fn batch(base: usize, n: usize) -> Vec<PointRecord> {
    (0..n)
        .map(|i| {
            let row = base + i;
            PointRecord {
                x: row as f64,
                y: (row * 3) as f64,
                z: (row % 97) as f64,
                intensity: row as u16,
                classification: (row % 13) as u8,
                ..Default::default()
            }
        })
        .collect()
}

/// Ingest `sizes` batches (fsync per batch), drop the writer, and return
/// the raw WAL image.
fn write_log(dir: &std::path::Path, sizes: &[usize]) -> Vec<u8> {
    let mut pc = PointCloud::open_ingest(dir, Durability::Always).unwrap();
    let mut base = 0usize;
    for &n in sizes {
        assert!(pc.ingest_records(&batch(base, n)).unwrap());
        base += n;
    }
    drop(pc);
    std::fs::read(wal::wal_path_for(dir)).unwrap()
}

/// Rows of the longest frame prefix that fits entirely under `cut` bytes —
/// computed from the layout alone, independent of the decoder under test.
fn committed_rows_under(sizes: &[usize], cut: usize) -> usize {
    let rb = row_bytes();
    let mut at = WAL_HEADER;
    let mut rows = 0usize;
    for &n in sizes {
        let flen = FRAME_HEADER + 4 + n * rb;
        if at + flen > cut {
            break;
        }
        rows += n;
        at += flen;
    }
    rows
}

/// The reopened cloud must hold exactly rows `0..expect` of the workload.
fn assert_recovered_prefix(pc: &PointCloud, expect: usize, ctx: &str) {
    assert_eq!(pc.num_points(), expect, "{ctx}: row count");
    assert_eq!(pc.visible_rows(), expect, "{ctx}: visibility watermark");
    for row in 0..expect {
        let rec = pc.record(row).unwrap();
        assert_eq!(rec.x, row as f64, "{ctx}: row {row} x");
        assert_eq!(rec.y, (row * 3) as f64, "{ctx}: row {row} y");
        assert_eq!(rec.intensity, row as u16, "{ctx}: row {row} intensity");
    }
    assert!(pc.record(expect).is_none(), "{ctx}: no ghost row");
    let rep = pc.recovery_report().unwrap();
    assert_eq!(rep.total_rows, expect, "{ctx}: report total");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating the log at *any* byte (even zero) recovers exactly the
    /// batches whose frames survived whole.
    #[test]
    fn any_tail_truncation_recovers_the_longest_committed_prefix(
        sizes in prop::collection::vec(1usize..40, 1..6),
        frac in 0u32..=1000,
    ) {
        let dir = ScratchDir::vacant("walprop");
        let bytes = write_log(&dir, &sizes);
        let cut = (bytes.len() * frac as usize / 1000).min(bytes.len());
        std::fs::write(wal::wal_path_for(&dir), &bytes[..cut]).unwrap();

        let ctx = format!("sizes {sizes:?} cut {cut}/{}", bytes.len());
        if cut > 0 && cut < WAL_HEADER {
            // A torn *header* is indistinguishable from a foreign file:
            // refusing to open beats guessing at a base row count.
            prop_assert!(
                PointCloud::open_ingest(&dir, Durability::Always).is_err(),
                "{ctx}: torn header must be an error"
            );
            return Ok(());
        }
        let pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
        let expect = if cut == 0 { 0 } else { committed_rows_under(&sizes, cut) };
        assert_recovered_prefix(&pc, expect, &ctx);
    }

    /// Flipping a single bit anywhere either fails the header check (an
    /// error, never a replay) or truncates recovery to the frames strictly
    /// before the damaged one — the decoder never resynchronises past
    /// damage and never surfaces a corrupted row.
    #[test]
    fn a_single_bit_flip_recovers_only_frames_before_the_damage(
        sizes in prop::collection::vec(1usize..40, 1..6),
        pos in 0u32..1000,
        bit in 0u8..8,
    ) {
        let dir = ScratchDir::vacant("walprop");
        let mut bytes = write_log(&dir, &sizes);
        let at = (bytes.len() * pos as usize / 1000).min(bytes.len() - 1);
        bytes[at] ^= 1 << bit;
        std::fs::write(wal::wal_path_for(&dir), &bytes).unwrap();

        let ctx = format!("sizes {sizes:?} flip byte {at} bit {bit}");
        if at < WAL_HEADER {
            prop_assert!(
                PointCloud::open_ingest(&dir, Durability::Always).is_err(),
                "{ctx}: header damage must be an error"
            );
            return Ok(());
        }
        // Frames strictly before the one containing byte `at` are intact;
        // everything from the damaged frame on must be dropped.
        let expect = committed_rows_under(&sizes, at);
        let pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
        assert_recovered_prefix(&pc, expect, &ctx);

        // Recovery truncated the damaged tail, so a second open (and a
        // resumed writer) sees a clean log ending at the same prefix.
        let pc2 = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
        assert_recovered_prefix(&pc2, expect, &format!("{ctx}: reopen"));
    }
}
