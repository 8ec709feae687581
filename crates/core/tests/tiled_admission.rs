//! A governed tiled query passes admission control like a flat one. One
//! test in a binary of its own: it reconfigures the process-wide admission
//! controller (the one tiled tables use) and reads process-wide counters.

use lidardb_core::{
    AdmissionController, CoreError, MetricsRegistry, Parallelism, PointCloud, RefineStrategy,
    TileOptions, TiledCloud,
};
use lidardb_las::PointRecord;

#[test]
fn governed_tiled_select_takes_an_admission_permit() {
    let dir = std::env::temp_dir().join(format!("lidardb_tiled_admission_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let recs: Vec<PointRecord> = (0..4096)
        .map(|i| PointRecord {
            x: (i % 64) as f64,
            y: (i / 64) as f64,
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
    assert_eq!(select().unwrap().rows.len(), recs.len());
    assert_eq!(metrics.queries.get(), queries + 1);
    assert_eq!(adm.in_flight(), 0, "the query's permit was released");

    adm.set_limits(before.0, before.1);
    let _ = std::fs::remove_dir_all(&dir);
}
