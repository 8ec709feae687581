//! A table holds its column values, not twice its values.
//!
//! The binary loader sizes every column once from the decoded row counts,
//! a tiled seal grows the base once by the tail's rows, and a reopen sizes
//! the base from its tiles and the tail from the replayed WAL frames. Each
//! is weighed here with a counting allocator: the heap a table holds is
//! within 2 % of its column values plus a small fixed allowance (the
//! cloud's own structs, the schema's names, the WAL writer). A column left
//! to grow by doubling holds up to twice its values and fails this.
//!
//! One `#[test]`, so that no test running beside it moves the count.

use lidardb_core::{Durability, LoadMethod, Loader, MetricsRegistry, PointCloud, TileOptions};
use lidardb_las::{write_las_file, Compression, LasHeader, PointRecord};
use lidardb_test_support::{CountingAlloc, ScratchDir};

#[global_allocator]
static HEAP: CountingAlloc = CountingAlloc;

/// Bytes a table may hold beyond its values and the 2 %: structs, names,
/// the WAL writer.
const ALLOWANCE: usize = 16 << 10;

fn records(first: usize, n: usize) -> Vec<PointRecord> {
    (first..first + n)
        .map(|i| PointRecord {
            x: (i % 1_000) as f64,
            y: (i / 1_000) as f64,
            z: (i % 37) as f64,
            intensity: (i % 4_096) as u16,
            classification: (i % 7) as u8,
            gps_time: i as f64,
            ..Default::default()
        })
        .collect()
}

/// Assert that the heap grown since the last reset is the table's values,
/// give or take 2 % and the allowance.
fn assert_holds_its_values(pc: &PointCloud, when: &str) {
    let held = HEAP.in_use();
    let values = pc.data_bytes();
    let bound = values + values / 50 + ALLOWANCE;
    assert!(
        held >= values as isize && held as usize <= bound,
        "{when}: {held} bytes held for {values} bytes of values (bound {bound})"
    );
}

fn gauge(name: &str) -> u64 {
    let series = MetricsRegistry::SERIES.iter().find(|s| s.name == name);
    series.expect(name).value(MetricsRegistry::global())
}

fn assert_gauges(pc: &PointCloud, when: &str) {
    assert_eq!(gauge("table_rows"), pc.num_points() as u64, "{when}");
    assert_eq!(gauge("table_bytes"), pc.data_bytes() as u64, "{when}");
    assert_eq!(gauge("table_spare_bytes"), 0, "{when}");
}

#[test]
fn tables_hold_their_values_after_load_seal_and_reopen() {
    // Eight files of unequal sizes, as survey tiles are: equal ones would
    // sum to a power-of-two multiple of the first and hide the doubling.
    let files = ScratchDir::new("heap_exact_las");
    let header = || LasHeader::builder().compression(Compression::None).build();
    let mut paths = Vec::new();
    let mut rows = 0;
    for f in 0..8 {
        let n = 20_000 + 1_000 * f;
        let path = files.join(format!("f{f}.las"));
        write_las_file(&path, header(), &records(rows, n)).unwrap();
        paths.push(path);
        rows += n;
    }
    let loader = Loader::new(LoadMethod::Binary).with_threads(2);
    // Warm every process-wide lazy (registry, tracer) before counting.
    loader
        .load_files(&mut PointCloud::new(), &paths[..1])
        .unwrap();

    // Bulk load: every column sized once from the decoded rows.
    HEAP.reset();
    let mut pc = PointCloud::new();
    loader.load_files(&mut pc, &paths).unwrap();
    assert_eq!(pc.num_points(), rows);
    assert_holds_its_values(&pc, "after the bulk load");
    assert_gauges(&pc, "after the bulk load");

    // A streaming cloud over that dump, a tail ingested, sealed to tiles:
    // the tail folds into the base, grown once.
    let store = ScratchDir::vacant("heap_exact_store");
    pc.save_dir(&store).unwrap();
    drop(pc);
    let before_seal: Vec<_> = (0..4).map(|b| records(rows + 2_500 * b, 2_500)).collect();
    let after_seal: Vec<_> = (0..5)
        .map(|b| records(rows + 10_000 + 3_000 * b, 3_000))
        .collect();
    HEAP.reset();
    let mut pc = PointCloud::open_ingest(&store, Durability::Always).unwrap();
    for batch in &before_seal {
        pc.ingest_records(batch).unwrap();
    }
    let opts = TileOptions {
        target_rows: 50_000,
        ..TileOptions::default()
    };
    let tiles = pc.seal_to_tiles(&opts).unwrap();
    assert!(tiles > 1, "{tiles} tiles: the reopen must join several");
    assert_eq!(pc.num_points(), rows + 10_000);
    assert_holds_its_values(&pc, "after seal_to_tiles");

    // Rows logged after the seal, then a reopen: the base is joined from
    // its tiles and the tail replayed from the WAL, each sized once.
    for batch in &after_seal {
        pc.ingest_records(batch).unwrap();
    }
    drop(pc);
    HEAP.reset();
    let pc = PointCloud::open_ingest(&store, Durability::Always).unwrap();
    assert_eq!(pc.recovery_report().unwrap().replayed_frames, 5);
    assert_eq!(pc.num_points(), rows + 25_000);
    assert_holds_its_values(&pc, "after a reopen with a replayed WAL");
    assert_gauges(&pc, "after a reopen with a replayed WAL");
}
