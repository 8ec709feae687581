//! Property tests for the WAL idempotency ledger: for *any* interleaving
//! of tagged inserts, token replays, seals and process restarts, a token
//! the table has acknowledged once is **never applied twice** — including
//! replays that arrive after a seal truncated the frames that carried the
//! tokens (the header snapshot must cover them) and after a crash/reopen
//! (the scan must rebuild the ledger). The ledger also stays bounded: it
//! may exceed [`LEDGER_CAP`] only by the undurable group-commit window.

use std::collections::HashSet;

use lidardb_core::{wal, Durability, PointCloud, LEDGER_CAP};
use lidardb_las::PointRecord;
use lidardb_test_support::ScratchDir;
use proptest::prelude::*;

fn batch(tag: u64, n: usize) -> Vec<PointRecord> {
    (0..n)
        .map(|i| PointRecord {
            x: tag as f64,
            y: i as f64,
            intensity: tag as u16,
            ..Default::default()
        })
        .collect()
}

/// One step of a client history.
#[derive(Debug, Clone)]
enum Op {
    /// Tagged insert (a retry if the token was used before).
    Insert { token: u64, rows: usize },
    /// Fold the WAL into the dump and truncate it.
    Seal,
    /// Crash/restart: drop the cloud and reopen from disk.
    Reopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The selector is biased toward inserts (6/8) so histories carry
    // enough tokens to make the seal/reopen replays meaningful.
    (0u8..8, 1u64..12, 1usize..5).prop_map(|(sel, token, rows)| match sel {
        6 => Op::Seal,
        7 => Op::Reopen,
        _ => Op::Insert { token, rows },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exactly-once under any history: replayed tokens are deduped across
    /// seals and restarts, and the final row count equals the sum of the
    /// *first* acceptance of each token.
    #[test]
    fn tokens_are_applied_exactly_once_across_seals_and_restarts(
        ops in prop::collection::vec(op_strategy(), 1..24),
    ) {
        let dir = ScratchDir::vacant("ledger");
        let mut pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
        let mut seen: HashSet<u64> = HashSet::new();
        let mut expect_rows = 0usize;
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert { token, rows } => {
                    let ack = pc.ingest_records_tagged(&batch(token, rows), token).unwrap();
                    if seen.insert(token) {
                        prop_assert!(!ack.deduped, "op {i}: fresh token {token} deduped");
                        prop_assert_eq!(ack.inserted, rows, "op {i}");
                        expect_rows += rows;
                    } else {
                        prop_assert!(ack.deduped, "op {i}: replayed token {token} applied again");
                        prop_assert_eq!(ack.inserted, 0, "op {i}");
                    }
                    prop_assert!(ack.durable, "Durability::Always acks immediately");
                }
                Op::Seal => pc.seal().unwrap(),
                Op::Reopen => {
                    drop(pc);
                    pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
                }
            }
            prop_assert_eq!(pc.num_points(), expect_rows, "op {i}: row count");
        }
        // Final restart, then replay every token ever acked: all deduped,
        // no row moves.
        drop(pc);
        let mut pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
        prop_assert_eq!(pc.num_points(), expect_rows, "rows after final recovery");
        for &token in &seen {
            let ack = pc.ingest_records_tagged(&batch(token, 3), token).unwrap();
            prop_assert!(ack.deduped, "token {token} forgot its dedup after recovery");
        }
        prop_assert_eq!(pc.num_points(), expect_rows, "replays must not add rows");
    }
}

/// The ledger is bounded: overflow past `LEDGER_CAP` survives only while
/// undurable, and a seal snapshots at most `LEDGER_CAP` tokens into the
/// header — so the on-disk header cannot grow without bound either.
#[test]
fn ledger_stays_bounded_past_the_durable_watermark() {
    let dir = ScratchDir::vacant("ledger");
    let mut pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    for t in 0..LEDGER_CAP as u64 + 50 {
        pc.ingest_records_tagged(&batch(t + 1, 1), t + 1).unwrap();
    }
    pc.seal().unwrap();
    drop(pc);
    // The header snapshot holds at most LEDGER_CAP tokens…
    let bytes = std::fs::read(wal::wal_path_for(&dir)).unwrap();
    let count = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    assert!(count <= LEDGER_CAP, "header ledger {count} exceeds cap");
    // …the newest ones: the most recent token still dedups, the oldest
    // (evicted, durable) does not.
    let mut pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    let newest = LEDGER_CAP as u64 + 50;
    let ack = pc.ingest_records_tagged(&batch(newest, 1), newest).unwrap();
    assert!(ack.deduped, "newest token evicted too early");
    let ack = pc.ingest_records_tagged(&batch(1, 1), 1).unwrap();
    assert!(
        !ack.deduped,
        "oldest durable token should have been evicted"
    );
}
