//! A tiled query passes admission control like a flat one. The tests sit
//! in a binary of their own: they reconfigure the process-wide admission
//! controller (the one tiled tables use) and read process-wide counters,
//! one at a time under [`GLOBALS`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lidardb_core::{
    AdmissionController, CoreError, MetricsRegistry, Parallelism, PointCloud, QueryRegistry,
    RefineStrategy, TileOptions, TiledCloud,
};
use lidardb_las::PointRecord;

/// Serialises the tests that reconfigure the process-wide controller.
static GLOBALS: Mutex<()> = Mutex::new(());

/// A `side × side` point grid sealed into tiles of 512 rows under a fresh
/// directory named after `tag`.
fn tiled(tag: &str, side: usize) -> (std::path::PathBuf, TiledCloud) {
    let dir = std::env::temp_dir().join(format!("lidardb_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let recs: Vec<PointRecord> = (0..side * side)
        .map(|i| PointRecord {
            x: (i % side) as f64,
            y: (i / side) as f64,
            ..Default::default()
        })
        .collect();
    let mut pc = PointCloud::new();
    pc.append_records(&recs).unwrap();
    let opts = TileOptions {
        target_rows: 512,
        ..Default::default()
    };
    assert!(pc.save_tiled(&dir, &opts).unwrap() > 1);
    let tc = TiledCloud::open(&dir).unwrap();
    (dir, tc)
}

#[test]
fn governed_tiled_select_takes_an_admission_permit() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, tc) = tiled("tiled_admission", 64);
    let select = || {
        tc.select_query_governed(
            None,
            &[],
            RefineStrategy::default(),
            Parallelism::Serial,
            None,
            None,
        )
    };

    let adm = AdmissionController::global();
    let before = adm.limits();
    adm.set_limits(1, 0);
    let metrics = MetricsRegistry::global();
    let shed = metrics.queries_shed.get();

    // One slot, no queue: while the permit is held the query is shed
    // before it touches a tile.
    let permit = adm.admit(None).unwrap();
    assert!(matches!(select(), Err(CoreError::Overloaded)));
    assert_eq!(metrics.queries_shed.get(), shed + 1);
    assert_eq!(tc.tile_loads(), 0);

    // Released: admitted, and the whole tile loop is ONE query.
    drop(permit);
    let queries = metrics.queries.get();
    assert_eq!(select().unwrap().rows.len(), tc.num_points());
    assert_eq!(metrics.queries.get(), queries + 1);
    assert_eq!(adm.in_flight(), 0, "the query's permit was released");

    adm.set_limits(before.0, before.1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `select_query_with` on a tiled table is governed, not a bypass: it
/// queues on and is shed by the process-wide controller, and it is listed
/// by the query registry while it runs.
#[test]
fn tiled_select_query_with_is_governed() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, tc) = tiled("tiled_select_with", 256);
    // Every query reloads its tiles, so each one runs long enough to be seen.
    tc.set_resident_budget(1);
    let select =
        || tc.select_query_with(None, &[], RefineStrategy::default(), Parallelism::Serial);

    let adm = AdmissionController::global();
    let before = adm.limits();
    adm.set_limits(1, 1);
    let permit = adm.admit(None).unwrap();
    std::thread::scope(|s| {
        // The only slot is held: the query waits in the queue...
        let waiter = s.spawn(select);
        while adm.queued() == 0 {
            assert!(!waiter.is_finished(), "the query ran without queueing");
            std::thread::yield_now();
        }
        // ...and with the queue full, the next one is shed.
        assert!(matches!(select(), Err(CoreError::Overloaded)));
        assert_eq!(tc.tile_loads(), 0, "neither query touched a tile");
        drop(permit);
        let sel = waiter.join().unwrap().unwrap();
        assert_eq!(sel.rows.len(), tc.num_points());
        assert!(tc.tile_loads() > 0);
    });
    adm.set_limits(before.0, before.1);

    // While a query runs, `SHOW QUERIES` lists it.
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                select().unwrap();
            }
        });
        let give_up = Instant::now() + Duration::from_secs(60);
        while !QueryRegistry::global()
            .list()
            .iter()
            .any(|q| q.detail.starts_with("tiled select"))
        {
            assert!(Instant::now() < give_up, "a running tiled query was never listed");
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert!(QueryRegistry::global().list().is_empty(), "finished queries deregister");
    let _ = std::fs::remove_dir_all(&dir);
}
