//! Crash-recovery torture suite for the streaming-ingest WAL.
//!
//! Each scenario "kills" the ingester at a seeded fault point (WAL append,
//! group-commit sync, seal, the dump commit, or mid-recovery), reopens the
//! directory, and verifies the fundamental contract:
//!
//! * **no lost acks** — every batch whose durability was acknowledged
//!   (`ingest_records` returned `Ok(true)`, or a later flush/sync covered
//!   it) survives the crash byte-for-byte;
//! * **no ghost rows** — recovery never resurrects rows past the durable
//!   watermark, and a reader before the crash never saw them either.
//!
//! Everything is seed-deterministic: a failing combination reproduces
//! exactly from its `(stage, kind, seed)` triple in the panic message.

use lidardb_core::{Durability, FaultInjector, FaultKind, FaultStage, PointCloud};
use lidardb_las::PointRecord;
use lidardb_test_support::ScratchDir;

/// Batch `b` of the torture workload: 50 recognisable points whose values
/// encode their global row index, so payload corruption is detectable.
fn batch(b: usize) -> Vec<PointRecord> {
    (0..50)
        .map(|i| {
            let row = b * 50 + i;
            PointRecord {
                x: row as f64,
                y: (row * 3) as f64,
                z: (row % 97) as f64,
                intensity: row as u16,
                classification: (row % 13) as u8,
                gps_time: row as f64 * 0.125,
                ..Default::default()
            }
        })
        .collect()
}

/// Assert the reopened cloud holds exactly rows `0..n` of the workload.
fn assert_exact_prefix(pc: &PointCloud, n: usize, ctx: &str) {
    assert_eq!(pc.num_points(), n, "{ctx}: row count");
    assert_eq!(pc.visible_rows(), n, "{ctx}: all recovered rows visible");
    for row in [0, n.saturating_sub(1), n / 2] {
        if n == 0 {
            break;
        }
        let rec = pc.record(row).unwrap();
        assert_eq!(rec.x, row as f64, "{ctx}: row {row} x");
        assert_eq!(rec.y, (row * 3) as f64, "{ctx}: row {row} y");
        assert_eq!(rec.intensity, row as u16, "{ctx}: row {row} intensity");
    }
    assert!(pc.record(n).is_none(), "{ctx}: no ghost row at {n}");
}

/// Drive batches into an ingesting cloud until the injected fault fires
/// (or all `total` batches land). Returns the durable (acknowledged) row
/// count at the moment of "death".
fn ingest_until_death(
    dir: &std::path::Path,
    durability: Durability,
    fi: std::sync::Arc<FaultInjector>,
    total: usize,
) -> usize {
    let mut pc = PointCloud::open_ingest_with_faults(dir, durability, Some(fi)).unwrap();
    let mut durable_rows = 0usize;
    for b in 0..total {
        match pc.ingest_records(&batch(b)) {
            Ok(true) => durable_rows = (b + 1) * 50,
            Ok(false) => {}
            Err(_) => {
                // The injected fault killed the append; whatever the WAL
                // last acknowledged is the survivable prefix.
                return pc.durable_rows().unwrap();
            }
        }
    }
    pc.durable_rows().unwrap().max(durable_rows)
}

#[test]
fn byte_faults_at_wal_append_lose_only_unacked_batches() {
    for (i, kind) in [
        FaultKind::Truncate(11),
        FaultKind::BitFlip(23),
        FaultKind::ShortWrite(37),
        FaultKind::TornWrite(53),
        FaultKind::Crash,
    ]
    .into_iter()
    .enumerate()
    {
        for frame in [0u64, 2, 5] {
            let ctx = format!("append {kind:?} at frame {frame}");
            let dir = ScratchDir::vacant(&format!("torture_append_{i}_{frame}"));
            let fi = std::sync::Arc::new(FaultInjector::new());
            fi.inject(FaultStage::WalAppend, Some(&format!("frame:{frame}")), kind);
            let durable = ingest_until_death(&dir, Durability::Always, fi, 8);
            assert_eq!(
                durable as u64,
                frame * 50,
                "{ctx}: acked prefix is everything before the dead frame"
            );
            let pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
            assert_exact_prefix(&pc, durable, &ctx);
            let rep = pc.recovery_report().unwrap();
            assert_eq!(rep.replayed_rows, durable, "{ctx}: report rows");
            // A damaged frame on disk shows up as a truncated tail; a pure
            // Crash wrote nothing, so the log ends cleanly.
            if kind == FaultKind::Crash {
                assert!(!rep.torn_tail, "{ctx}: crash leaves a clean tail");
            } else {
                assert!(rep.torn_tail, "{ctx}: damaged tail detected");
                assert!(rep.truncated_bytes > 0, "{ctx}");
            }
        }
    }
}

#[test]
fn crash_at_group_commit_sync_loses_only_the_unsynced_group() {
    for (kind, name) in [
        (FaultKind::Crash, "crash"),
        (FaultKind::TornWrite(71), "torn"),
    ] {
        let ctx = format!("sync {name}");
        let dir = ScratchDir::vacant(&format!("torture_sync_{name}"));
        let fi = std::sync::Arc::new(FaultInjector::new());
        // Groups of 3 batches; die at the second group's sync. The first
        // group (3 batches, 150 rows) was acknowledged and must survive;
        // the second group was never acked and may fully vanish.
        fi.inject(FaultStage::WalSync, None, kind);
        let gc = Durability::GroupCommit {
            max_batches: 3,
            max_delay: std::time::Duration::from_secs(3600),
        };
        let mut pc = PointCloud::open_ingest_with_faults(&dir, gc, Some(fi)).unwrap();
        let mut acked = 0usize;
        let mut died = false;
        for b in 0..9 {
            match pc.ingest_records(&batch(b)) {
                Ok(true) => acked = (b + 1) * 50,
                Ok(false) => {}
                Err(_) => {
                    died = true;
                    break;
                }
            }
        }
        assert!(died, "{ctx}: the injected sync fault must fire");
        assert_eq!(acked, 0, "{ctx}: first sync died, nothing was acked");
        drop(pc);
        let pc = PointCloud::open_ingest(&dir, gc).unwrap();
        // The unsynced tail may partially survive (page cache luck), but
        // only whole committed frames replay, and never past the group.
        let n = pc.num_points();
        assert!(n <= 150, "{ctx}: at most the in-flight group, got {n}");
        assert_eq!(n % 50, 0, "{ctx}: whole frames only, got {n}");
        assert_exact_prefix(&pc, n, &ctx);
    }
}

#[test]
fn crash_during_seal_window_replays_idempotently() {
    // Die after the dump commit but before the WAL truncate: the dump and
    // the WAL both hold the same 200 rows. Replay must skip, not double.
    let dir = ScratchDir::vacant("torture_seal_window");
    let fi = std::sync::Arc::new(FaultInjector::new());
    fi.inject(FaultStage::Seal, Some("truncate"), FaultKind::Crash);
    let mut pc = PointCloud::open_ingest_with_faults(&dir, Durability::Always, Some(fi)).unwrap();
    for b in 0..4 {
        assert!(pc.ingest_records(&batch(b)).unwrap());
    }
    assert!(pc.seal().is_err(), "injected seal crash");
    drop(pc);
    let pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    assert_exact_prefix(&pc, 200, "seal window");
    let rep = pc.recovery_report().unwrap();
    assert_eq!(rep.base_rows, 200, "dump carries everything");
    assert_eq!(rep.skipped_frames, 4, "all frames already in the dump");
    assert_eq!(rep.replayed_frames, 0, "no double replay");
    // The interrupted truncate was finished: ingest continues cleanly.
    let mut pc = pc;
    assert!(pc.ingest_records(&batch(4)).unwrap());
    drop(pc);
    let pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    assert_exact_prefix(&pc, 250, "seal window + post-crash batch");
}

#[test]
fn crash_during_seal_dump_commit_keeps_the_wal_authoritative() {
    // Die inside the dump save itself (before, during and between the
    // commit renames): the dump is old/absent but the WAL has everything.
    for (target, name) in [(None, "precommit"), (Some("swap"), "swap")] {
        let ctx = format!("seal dump {name}");
        let dir = ScratchDir::vacant(&format!("torture_seal_dump_{name}"));
        let fi = std::sync::Arc::new(FaultInjector::new());
        fi.inject(FaultStage::Commit, target, FaultKind::Crash);
        let mut pc =
            PointCloud::open_ingest_with_faults(&dir, Durability::Always, Some(fi)).unwrap();
        for b in 0..3 {
            assert!(pc.ingest_records(&batch(b)).unwrap());
        }
        assert!(pc.seal().is_err(), "{ctx}: injected dump crash");
        drop(pc);
        let pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
        assert_exact_prefix(&pc, 150, &ctx);
        let rep = pc.recovery_report().unwrap();
        assert_eq!(rep.replayed_rows, 150, "{ctx}: WAL replayed everything");
    }
    // Same, but sealing OVER a previous good dump: the old dump plus the
    // full WAL must reconstruct the acked state.
    let dir = ScratchDir::vacant("torture_seal_dump_over");
    let mut pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    pc.ingest_records(&batch(0)).unwrap();
    pc.seal().unwrap(); // good dump at 50 rows
    drop(pc);
    let fi = std::sync::Arc::new(FaultInjector::new());
    fi.inject(FaultStage::Commit, Some("swap"), FaultKind::Crash);
    let mut pc = PointCloud::open_ingest_with_faults(&dir, Durability::Always, Some(fi)).unwrap();
    pc.ingest_records(&batch(1)).unwrap();
    assert!(pc.seal().is_err(), "crash between the commit renames");
    drop(pc);
    // The target dir is gone; stale-dir recovery rolls back the .replaced
    // copy (50 rows) and the WAL replays the rest.
    let pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    assert_exact_prefix(&pc, 100, "seal over previous dump");
    assert_eq!(pc.recovery_report().unwrap().base_rows, 50);
}

#[test]
fn crash_during_tiled_seal_keeps_the_previous_dump_and_every_ack() {
    // A tiled checkpoint passes the same write fault sites as a flat one:
    // a crash writing a column fails it, the previous dump stays byte for
    // byte, and dump + WAL still recover every acked row.
    let dir = ScratchDir::vacant("torture_tiled_seal_crash");
    let fi = std::sync::Arc::new(FaultInjector::new());
    let mut pc =
        PointCloud::open_ingest_with_faults(&dir, Durability::Always, Some(fi.clone())).unwrap();
    for b in 0..2 {
        assert!(pc.ingest_records(&batch(b)).unwrap());
    }
    pc.seal().unwrap(); // the previous dump: 100 rows
    let snapshot = || -> Vec<(std::path::PathBuf, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| (p.clone(), std::fs::read(&p).unwrap()))
            .collect();
        files.sort();
        files
    };
    let before = snapshot();
    for b in 2..5 {
        assert!(pc.ingest_records(&batch(b)).unwrap());
    }
    fi.inject(FaultStage::WriteColumn, Some("intensity"), FaultKind::Crash);
    let opts = lidardb_core::TileOptions {
        target_rows: 64,
        ..Default::default()
    };
    assert!(
        pc.seal_to_tiles(&opts).is_err(),
        "injected column-write crash"
    );
    assert_eq!(fi.fired().len(), 1);
    drop(pc);
    assert_eq!(snapshot(), before, "previous dump untouched");
    let pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    assert_exact_prefix(&pc, 250, "tiled seal crash");
    assert_eq!(pc.recovery_report().unwrap().base_rows, 100);
}

#[test]
fn fault_during_recovery_is_an_error_then_a_clean_retry() {
    let dir = ScratchDir::vacant("torture_recover_fault");
    let mut pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    for b in 0..3 {
        assert!(pc.ingest_records(&batch(b)).unwrap());
    }
    drop(pc);
    // First reopen dies replaying frame 1 (a crash mid-recovery).
    let fi = std::sync::Arc::new(FaultInjector::new());
    fi.inject(FaultStage::Recover, Some("frame:1"), FaultKind::Crash);
    let err = PointCloud::open_ingest_with_faults(&dir, Durability::Always, Some(fi)).unwrap_err();
    assert!(err.to_string().contains("injected"), "{err}");
    // Recovery is read-only until the writer opens: a clean retry sees
    // the full committed prefix, nothing was consumed or truncated.
    let pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    assert_exact_prefix(&pc, 150, "retry after recovery fault");
}

#[test]
fn repeated_crashes_never_lose_reacked_rows() {
    // A chain of sessions, each killed at a different point; rows acked
    // in ANY session must survive every later crash.
    let dir = ScratchDir::vacant("torture_chain");
    let mut acked = 0usize;
    for (round, frame) in [(0usize, 1u64), (1, 2), (2, 0)] {
        let fi = std::sync::Arc::new(FaultInjector::new());
        fi.inject(
            FaultStage::WalAppend,
            Some(&format!("frame:{frame}")),
            FaultKind::TornWrite(round as u64 * 7 + 1),
        );
        let mut pc =
            PointCloud::open_ingest_with_faults(&dir, Durability::Always, Some(fi)).unwrap();
        assert_eq!(pc.num_points(), acked, "round {round}: recovered prefix");
        // Seal every other round so the dump/WAL boundary moves around.
        if round == 1 {
            pc.seal().unwrap();
        }
        for b in (acked / 50)..(acked / 50 + 4) {
            match pc.ingest_records(&batch(b)) {
                Ok(true) => acked = (b + 1) * 50,
                Ok(false) => unreachable!("Always acks or errors"),
                Err(_) => break,
            }
        }
        drop(pc);
        let pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
        assert_exact_prefix(&pc, acked, &format!("round {round}"));
    }
    assert!(acked >= 150, "the chain made progress: {acked}");
}

#[test]
fn queries_on_recovered_cloud_match_a_never_crashed_one() {
    // End-to-end: same workload into a crashed+recovered cloud and a
    // pristine one; a selective query must return identical rows.
    let dir = ScratchDir::vacant("torture_query_equiv");
    let fi = std::sync::Arc::new(FaultInjector::new());
    fi.inject(
        FaultStage::WalAppend,
        Some("frame:3"),
        FaultKind::BitFlip(5),
    );
    let durable = ingest_until_death(&dir, Durability::Always, fi, 6);
    assert_eq!(durable, 150);
    let pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    let mut fresh = PointCloud::new();
    for b in 0..3 {
        fresh.append_records(&batch(b)).unwrap();
    }
    let q = |pc: &PointCloud| {
        pc.select_query_with(
            None,
            &[lidardb_core::AttrRange::new("z", 10.0, 40.0)],
            Default::default(),
            lidardb_core::Parallelism::default(),
        )
        .unwrap()
        .rows
    };
    let (a, b) = (q(&pc), q(&fresh));
    assert!(!a.is_empty());
    assert_eq!(a, b, "recovered cloud answers exactly like a fresh one");
}

/// A reopen over a sealed base whose WAL replay lands in the tail: every
/// row comes back in order, and queries across the seam answer exactly
/// like a cloud that never crashed.
#[test]
fn replay_into_the_tail_of_a_sealed_base_returns_identical_rows() {
    let dir = ScratchDir::vacant("torture_replay_tail");
    let mut pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    for b in 0..4 {
        pc.ingest_records(&batch(b)).unwrap();
    }
    pc.seal().unwrap();
    for b in 4..10 {
        assert!(pc.ingest_records(&batch(b)).unwrap());
    }
    drop(pc); // "crash": rows 200..500 live only in the WAL
    let pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    let report = pc.recovery_report().unwrap();
    assert_eq!((report.base_rows, report.replayed_rows), (200, 300));
    assert_eq!(pc.table().num_rows(), 200, "the replay went to the tail");
    assert_exact_prefix(&pc, 500, "replay into the tail");
    let mut fresh = PointCloud::new();
    for b in 0..10 {
        fresh.append_records(&batch(b)).unwrap();
    }
    for row in 0..500 {
        assert_eq!(pc.record(row), fresh.record(row), "row {row}");
    }
    let window = lidardb_core::SpatialPredicate::Within(lidardb_geom::Geometry::Polygon(
        lidardb_geom::Polygon::from_exterior(vec![
            lidardb_geom::Point::new(100.0, 0.0),
            lidardb_geom::Point::new(400.0, 0.0),
            lidardb_geom::Point::new(400.0, 1300.0),
            lidardb_geom::Point::new(100.0, 400.0),
        ])
        .unwrap(),
    ));
    let attrs = [lidardb_core::AttrRange::new("z", 10.0, 40.0)];
    for workers in [1, 2, 8] {
        let q = |pc: &PointCloud| {
            let par = lidardb_core::Parallelism::Threads(workers);
            pc.select_query_with(Some(&window), &attrs, Default::default(), par)
                .unwrap()
                .rows
        };
        let (a, b) = (q(&pc), q(&fresh));
        assert!(a.iter().any(|&r| r < 200) && a.iter().any(|&r| r >= 200));
        assert_eq!(a, b, "{workers} workers: the seam changes no answer");
    }
}

#[test]
fn crash_during_drain_triggered_flush_replays_exactly_the_acked_prefix() {
    // The graceful-drain sequence force-flushes every stream table's
    // group-commit window before joining connection threads. If the
    // process dies *inside* that flush (power cut racing the drain), the
    // restart must replay to exactly the acked prefix: durable batches
    // survive, the unsynced drain window is lost — and it was never
    // acknowledged, so no client believes otherwise.
    for (i, kind) in [FaultKind::Crash, FaultKind::TornWrite(71)]
        .into_iter()
        .enumerate()
    {
        let ctx = format!("drain flush {kind:?}");
        let dir = ScratchDir::vacant(&format!("torture_drainflush_{i}"));
        let fi = std::sync::Arc::new(FaultInjector::new());
        let mut pc = PointCloud::open_ingest_with_faults(
            &dir,
            Durability::GroupCommit {
                max_batches: 3,
                max_delay: std::time::Duration::from_secs(3600),
            },
            Some(fi.clone()),
        )
        .unwrap();
        // Batches 0..3 sync at the group boundary (acked durable);
        // batches 3..5 sit in the open group-commit window.
        let mut acked = 0usize;
        for b in 0..5 {
            if pc.ingest_records(&batch(b)).unwrap() {
                acked = (b + 1) * 50;
            }
        }
        assert_eq!(acked, 150, "{ctx}: first group acked at the boundary");
        assert_eq!(pc.visible_rows(), 150, "{ctx}: watermark at the group");
        // Drain begins: the shutdown path calls flush_wal() — and dies.
        fi.inject(FaultStage::WalSync, None, kind);
        assert!(pc.flush_wal().is_err(), "{ctx}: injected death must fire");
        drop(pc);
        // Restart: every acked row survives, and whatever else comes back
        // is whole frames only (a torn sync may leave extra complete
        // frames on disk — recovering them is allowed, tearing mid-batch
        // is not).
        let pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
        let n = pc.num_points();
        assert!(n >= acked, "{ctx}: lost acked rows ({n} < {acked})");
        assert!(n <= 250, "{ctx}: invented rows ({n})");
        assert_eq!(n % 50, 0, "{ctx}: partial batch replayed");
        assert_exact_prefix(&pc, n, &ctx);
        if kind == FaultKind::Crash {
            // A clean crash loses the whole unsynced window: exactly the
            // acked prefix comes back.
            assert_eq!(n, acked, "{ctx}: crash keeps only the acked prefix");
        }
    }
}
