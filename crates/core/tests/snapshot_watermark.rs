//! Snapshot-watermark regression suite: every candidate-producing path
//! must ignore rows applied past `visible_rows`, even after the lazy
//! imprints have been incrementally refreshed to cover them.
//!
//! Scenario: an ingesting cloud under `GroupCommit{huge, huge}` commits a
//! first batch (flushed → visible), queries warm the imprints, then a
//! second batch lands **unflushed** — applied to the columns, indexed by
//! the refreshed imprints, but invisible. Each test pins one query path:
//! full scan, bbox-only, exhaustive refine, the parallel two-pass grid
//! refine, attribute-only probes, and aggregates. The last test races a
//! governed reader against a live writer under each durability policy and
//! reopens the table cold.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;
use std::time::Duration;

use lidardb_core::{
    Aggregate, Durability, GovernCtx, Parallelism, PointCloud, PointTable, RefineStrategy,
    SpatialPredicate,
};
use lidardb_geom::{Geometry, Point, Polygon};
use lidardb_las::PointRecord;
use lidardb_test_support::ScratchDir;

const VISIBLE: usize = 30_000;
const GHOST: usize = 30_000;

/// Deterministic records, all inside [0,100)². `tag` goes to gps_time so
/// sums distinguish the committed batch from the ghost batch.
fn records(n: usize, seed: u64, tag: f64) -> Vec<PointRecord> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| PointRecord {
            x: next() * 100.0,
            y: next() * 100.0,
            z: next() * 50.0,
            classification: (i % 12) as u8,
            intensity: (i % 4096) as u16,
            gps_time: tag,
            ..Default::default()
        })
        .collect()
}

/// Batch A committed and visible, imprints warmed over it, batch B
/// applied but unflushed: `num_points = 60k`, `visible_rows = 30k`, and
/// the cached x/y/classification/gps_time imprints cover all 60k rows.
fn cloud_with_ghost_rows() -> (ScratchDir, PointCloud) {
    let scratch = ScratchDir::vacant("watermark");
    let mut pc = PointCloud::open_ingest(
        &scratch,
        Durability::GroupCommit {
            max_batches: usize::MAX,
            max_delay: Duration::from_secs(3600),
        },
    )
    .unwrap();
    pc.ingest_records(&records(VISIBLE, 1, 1.0)).unwrap();
    pc.flush_wal().unwrap();
    assert_eq!(pc.visible_rows(), VISIBLE);
    // Warm every imprint the tests probe, so the ghost batch refreshes a
    // *cached* index instead of forcing a post-append rebuild.
    for col in ["x", "y", "classification", "gps_time"] {
        pc.imprints_for(col).unwrap();
    }
    assert!(!pc.ingest_records(&records(GHOST, 2, 1.0)).unwrap());
    assert_eq!(pc.num_points(), VISIBLE + GHOST, "ghost batch applied");
    assert_eq!(pc.visible_rows(), VISIBLE, "ghost batch invisible");
    (scratch, pc)
}

fn wide_rect() -> SpatialPredicate {
    // Covers every point: each path must still stop at the watermark.
    SpatialPredicate::Within(Geometry::Polygon(
        Polygon::from_exterior(vec![
            Point::new(-1.0, -1.0),
            Point::new(101.0, -1.0),
            Point::new(101.0, 101.0),
            Point::new(-1.0, 101.0),
        ])
        .unwrap(),
    ))
}

fn triangle() -> SpatialPredicate {
    // Non-rectangular, so refinement actually runs exact tests.
    SpatialPredicate::Within(Geometry::Polygon(
        Polygon::from_exterior(vec![
            Point::new(-1.0, -1.0),
            Point::new(220.0, -1.0),
            Point::new(-1.0, 220.0),
        ])
        .unwrap(),
    ))
}

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn assert_clamped(rows: &[usize], path: &str, workers: usize) {
    assert!(
        rows.iter().all(|&r| r < VISIBLE),
        "{path} at {workers} workers leaked rows past the watermark: max {:?}",
        rows.iter().max()
    );
}

#[test]
fn full_scan_sees_only_the_snapshot() {
    let (_scratch, pc) = cloud_with_ghost_rows();
    for w in WORKER_COUNTS {
        let sel = pc
            .select_query_with(
                None,
                &[],
                RefineStrategy::default(),
                Parallelism::Threads(w),
            )
            .unwrap();
        assert_eq!(sel.rows.len(), VISIBLE, "full scan at {w} workers");
        assert_clamped(&sel.rows, "full scan", w);
    }
}

#[test]
fn bbox_only_scan_never_reads_past_the_watermark() {
    let (_scratch, pc) = cloud_with_ghost_rows();
    for w in WORKER_COUNTS {
        let sel = pc
            .select_query_with(
                Some(&wide_rect()),
                &[],
                RefineStrategy::BboxOnly,
                Parallelism::Threads(w),
            )
            .unwrap();
        assert_eq!(sel.rows.len(), VISIBLE, "bbox-only at {w} workers");
        assert_clamped(&sel.rows, "bbox-only", w);
    }
}

#[test]
fn exhaustive_refine_never_reads_past_the_watermark() {
    let (_scratch, pc) = cloud_with_ghost_rows();
    let mut expected = None;
    for w in WORKER_COUNTS {
        let sel = pc
            .select_query_with(
                Some(&triangle()),
                &[],
                RefineStrategy::Exhaustive,
                Parallelism::Threads(w),
            )
            .unwrap();
        assert_clamped(&sel.rows, "exhaustive refine", w);
        let rows = sel.rows.clone();
        match &expected {
            None => expected = Some(rows),
            Some(e) => assert_eq!(e, &rows, "exhaustive refine diverged at {w} workers"),
        }
    }
    assert!(
        expected.unwrap().len() > 2 * lidardb_core::MORSEL_MIN_ROWS,
        "the triangle must keep enough rows to exercise parallel refinement"
    );
}

#[test]
fn parallel_two_pass_grid_refine_never_reads_past_the_watermark() {
    let (_scratch, pc) = cloud_with_ghost_rows();
    let mut expected = None;
    for w in WORKER_COUNTS {
        let sel = pc
            .select_query_with(
                Some(&triangle()),
                &[],
                RefineStrategy::Grid { cells: 32 },
                Parallelism::Threads(w),
            )
            .unwrap();
        assert!(
            sel.explain.after_imprints >= 2 * lidardb_core::MORSEL_MIN_ROWS,
            "candidate set too small to trigger parallel grid refinement"
        );
        assert_clamped(&sel.rows, "grid refine", w);
        let rows = sel.rows.clone();
        match &expected {
            None => expected = Some(rows),
            Some(e) => assert_eq!(e, &rows, "grid refine diverged at {w} workers"),
        }
    }
}

#[test]
fn attr_only_probe_never_reads_past_the_watermark() {
    let (_scratch, pc) = cloud_with_ghost_rows();
    for w in WORKER_COUNTS {
        let sel = pc
            .select_query_with(
                None,
                &[lidardb_core::AttrRange {
                    column: "classification".into(),
                    lo: 0.0,
                    hi: 11.0,
                }],
                RefineStrategy::default(),
                Parallelism::Threads(w),
            )
            .unwrap();
        assert_eq!(sel.rows.len(), VISIBLE, "attr-only at {w} workers");
        assert_clamped(&sel.rows, "attr-only", w);
    }
}

#[test]
fn aggregates_cover_only_visible_rows() {
    let (_scratch, pc) = cloud_with_ghost_rows();
    for w in WORKER_COUNTS {
        let sel = pc
            .select_query_with(
                Some(&wide_rect()),
                &[],
                RefineStrategy::default(),
                Parallelism::Threads(w),
            )
            .unwrap();
        assert_clamped(&sel.rows, "aggregate input", w);
        // Every row carries gps_time = 1.0, so SUM equals the row count:
        // ghost rows leaking in would show up directly in the total.
        let table = PointTable::Flat(&pc);
        let ungoverned = GovernCtx::ungoverned();
        let sum = table
            .aggregate(
                &sel.rows,
                "gps_time",
                Aggregate::Sum,
                Parallelism::Threads(w),
                &ungoverned,
            )
            .unwrap()
            .unwrap();
        assert_eq!(sum, VISIBLE as f64, "SUM leaked ghost rows at {w} workers");
        let cnt = table
            .aggregate(
                &sel.rows,
                "gps_time",
                Aggregate::Count,
                Parallelism::Threads(w),
                &ungoverned,
            )
            .unwrap()
            .unwrap();
        assert_eq!(cnt, VISIBLE as f64);
    }
}

/// The watermark inside the tail of a sealed base: the base is visible
/// whole, the tail up to the watermark, and every path stops there at
/// every worker count.
#[test]
fn the_watermark_clamps_inside_the_tail_of_a_sealed_base() {
    const BASE: usize = 20_000;
    let scratch = ScratchDir::vacant("watermark_tail");
    let durability = Durability::GroupCommit {
        max_batches: usize::MAX,
        max_delay: Duration::from_secs(3600),
    };
    let mut pc = PointCloud::open_ingest(&scratch, durability).unwrap();
    pc.ingest_records(&records(BASE, 3, 1.0)).unwrap();
    pc.seal().unwrap();
    drop(pc);
    let mut pc = PointCloud::open_ingest(&scratch, durability).unwrap();
    // Warm the base's imprints: the tail is indexed on their bins as it
    // grows, ghost rows included.
    for col in ["x", "y", "classification", "gps_time"] {
        pc.imprints_for(col).unwrap();
    }
    pc.ingest_records(&records(VISIBLE - BASE, 1, 1.0)).unwrap();
    pc.flush_wal().unwrap();
    assert!(!pc.ingest_records(&records(GHOST, 2, 1.0)).unwrap());
    assert_eq!(
        pc.column("x").unwrap().len(),
        BASE,
        "the base holds the sealed rows"
    );
    assert_eq!(pc.num_points(), VISIBLE + GHOST);
    assert_eq!(
        pc.visible_rows(),
        VISIBLE,
        "the watermark is inside the tail"
    );
    let ungoverned = GovernCtx::ungoverned();
    for w in WORKER_COUNTS {
        let par = Parallelism::Threads(w);
        let all = pc.select_query_with(None, &[], RefineStrategy::default(), par);
        assert_eq!(
            all.unwrap().rows,
            (0..VISIBLE).collect::<Vec<_>>(),
            "full scan at {w}"
        );
        for (path, pred, strategy) in [
            ("wide rect", wide_rect(), RefineStrategy::default()),
            ("bbox only", wide_rect(), RefineStrategy::BboxOnly),
            ("exhaustive", triangle(), RefineStrategy::Exhaustive),
            ("grid", triangle(), RefineStrategy::default()),
        ] {
            let rows = pc
                .select_query_with(Some(&pred), &[], strategy, par)
                .unwrap()
                .rows;
            assert_clamped(&rows, path, w);
            assert!(
                rows.iter().any(|&r| r >= BASE),
                "{path} reads the tail at {w}"
            );
        }
        let attr = lidardb_core::AttrRange::new("classification", 0.0, 11.0);
        let rows = pc.select_query_with(None, &[attr], RefineStrategy::default(), par);
        let rows = rows.unwrap().rows;
        assert_eq!(rows.len(), VISIBLE, "attr-only at {w} workers");
        let sum = PointTable::Flat(&pc)
            .aggregate(&rows, "gps_time", Aggregate::Sum, par, &ungoverned)
            .unwrap();
        assert_eq!(
            sum,
            Some(VISIBLE as f64),
            "SUM leaked ghost rows at {w} workers"
        );
    }
}

/// A governed reader races a writer streaming batches through the WAL.
/// The workload's x IS the row index, so under the read lock the expected
/// hit count of `x < cut` is exactly `min(visible, cut)`: an extra,
/// missing or not-yet-visible row is a snapshot violation. Afterwards a
/// cold reopen must replay every acknowledged row.
#[test]
fn racing_reader_sees_exact_snapshots_and_reopen_recovers_every_acked_row() {
    const TOTAL: usize = 30_000;
    const BATCH: usize = 2_000;
    const CUT: usize = TOTAL / 2;
    let policies = [
        Durability::None,
        Durability::GroupCommit {
            max_batches: 16,
            max_delay: Duration::from_millis(20),
        },
        Durability::Always,
    ];
    for durability in policies {
        let dir = ScratchDir::vacant("watermark");
        let lock = RwLock::new(PointCloud::open_ingest(&dir, durability).unwrap());
        let done = AtomicBool::new(false);
        let queries = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut queries = 0usize;
                // At least one query after the last batch, so the final
                // state is always checked.
                let mut last = false;
                while !last {
                    last = done.load(Ordering::Acquire);
                    let pc = lock.read().unwrap();
                    let visible = pc.visible_rows();
                    let table = PointTable::Flat(&pc);
                    let deadline = Some(Duration::from_secs(10));
                    let g = table
                        .govern("select (1 attr filters)", deadline, None)
                        .unwrap();
                    let sel = table
                        .select(
                            None,
                            &[lidardb_core::AttrRange::new("x", 0.0, CUT as f64 - 0.5)],
                            RefineStrategy::default(),
                            Parallelism::Auto,
                            &g.ctx,
                        )
                        .unwrap();
                    drop(g);
                    assert_eq!(
                        sel.rows.len(),
                        visible.min(CUT),
                        "{durability:?}: wrong hit count at watermark {visible}"
                    );
                    assert!(
                        sel.rows.iter().all(|&r| r < visible),
                        "{durability:?}: a row past the watermark {visible} was returned"
                    );
                    drop(pc);
                    queries += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                queries
            });
            for base in (0..TOTAL).step_by(BATCH) {
                let recs: Vec<PointRecord> = (base..base + BATCH)
                    .map(|row| PointRecord {
                        x: row as f64,
                        y: (row % 1000) as f64,
                        z: (row % 97) as f64,
                        ..Default::default()
                    })
                    .collect();
                lock.write().unwrap().ingest_records(&recs).unwrap();
            }
            // The tail group commit is acknowledged before "shutdown".
            lock.write().unwrap().flush_wal().unwrap();
            done.store(true, Ordering::Release);
            reader.join().expect("reader thread")
        });
        assert!(queries > 0);
        let pc = lock.into_inner().unwrap();
        assert_eq!(
            pc.visible_rows(),
            TOTAL,
            "{durability:?}: all batches acknowledged"
        );
        drop(pc);

        let recovered = PointCloud::open_ingest(&dir, durability).unwrap();
        let report = recovered.recovery_report().expect("recovery report");
        assert_eq!(
            report.total_rows, TOTAL,
            "{durability:?}: cold reopen lost acked rows"
        );
    }
}
