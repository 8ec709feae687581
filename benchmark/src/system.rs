//! Inputs, and the system under test: how each workload's table is built
//! from LAS tiles, served on loopback, and taken down again.
//!
//! Set-up does what an operator does — bulk-load the tiles with the
//! binary loader, build the imprints navigation needs, persist where the
//! workload serves persisted data, bind the server and connect — and each
//! step is timed from outside through the public calls it makes.

use std::path::PathBuf;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use lidardb_core::{Durability, LoadMethod, Loader, PointCloud, TileOptions, TiledCloud};
use lidardb_datagen::{Scene, SceneConfig, TileSet};
use lidardb_las::{Compression, LasHeader, PointRecord};
use lidardb_server::{Client, Server, ServerHandle};
use lidardb_sql::Catalog;

use crate::host::{dir_bytes, Scratch};
use crate::ops::{Scale, Workload};

/// Group commit by count alone: a sync every 16 batches and never by the
/// clock, so which batch triggers a sync — and with it every fsync count
/// and every snapshot a reader sees — repeats exactly from run to run.
pub const DURABILITY: Durability = Durability::GroupCommit {
    max_batches: 16,
    max_delay: Duration::from_secs(3600),
};

/// South-west corner of the scene in RD-like coordinates, so SQL text and
/// quantisation see numbers the size real AHN2 tiles have.
const ORIGIN: (f64, f64) = (85_000.0, 446_000.0);

/// Everything generated from the seed, before any clock starts.
pub struct Inputs {
    pub scene: Scene,
    /// Every generated point, in tile order, on the LAS centimetre grid.
    pub records: Vec<PointRecord>,
    pub num_points: usize,
    pub las_files: Vec<PathBuf>,
    pub las_bytes: u64,
    /// Seconds spent generating the scene and its points.
    pub gen_s: f64,
    _dir: Scratch,
}

pub fn make_inputs(seed: u64, scale: &Scale) -> Inputs {
    let t0 = Instant::now();
    let scene = Scene::generate(SceneConfig {
        seed,
        origin: ORIGIN,
        extent_m: scale.extent_m,
    });
    let tiles = TileSet::generate(&scene, scale.tiles_per_side, scale.density).into_tiles();
    let gen_s = t0.elapsed().as_secs_f64();

    let header = LasHeader::builder()
        .scale(0.01, 0.01, 0.01)
        .offset(ORIGIN.0, ORIGIN.1, 0.0)
        .compression(Compression::None)
        .build();
    let dir = Scratch::new("las");
    std::fs::create_dir_all(dir.path()).expect("create LAS dir");
    let mut records = Vec::new();
    let mut las_files = Vec::new();
    for mut tile in tiles {
        // LAS stores centimetres; snap the generated coordinates to that
        // grid first so the oracle's raw records are what the files hold.
        for r in &mut tile.records {
            let (i, j, k) = header
                .quantise(r.x, r.y, r.z)
                .expect("scene fits LAS range");
            (r.x, r.y, r.z) = header.dequantise(i, j, k);
            assert_eq!(
                header.quantise(r.x, r.y, r.z).ok(),
                Some((i, j, k)),
                "centimetre grid must be a fixed point of LAS quantisation"
            );
        }
        let path = dir.path().join(format!("{}.las", tile.name));
        lidardb_las::write_las_file(&path, header, &tile.records).expect("write LAS tile");
        las_files.push(path);
        records.append(&mut tile.records);
    }
    Inputs {
        scene,
        num_points: records.len(),
        records,
        las_bytes: dir_bytes(dir.path()),
        las_files,
        gen_s,
        _dir: dir,
    }
}

/// The table a workload serves.
pub enum Table {
    Flat(Arc<PointCloud>),
    Tiled(Arc<TiledCloud>),
    Stream(Arc<RwLock<PointCloud>>),
}

/// Seconds of each set-up step, as timed around the public call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub load_s: f64,
    /// Summed over loader threads, as `LoadStats` reports it.
    pub decode_s: f64,
    pub imprint_build_s: f64,
    pub save_s: f64,
    pub saved_bytes: u64,
    pub open_s: f64,
}

pub struct System {
    pub table: Table,
    /// The catalog the server serves; the traced run executes against it
    /// directly.
    pub catalog: Catalog,
    pub client: Client,
    pub times: SetupTimes,
    /// Rows of the loaded table.
    pub points: usize,
    server: ServerHandle,
    /// Tile directory (`nav_tiled`) or ingest base dump (`ingest_mixed`).
    store: Option<Scratch>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn build_imprints(pc: &PointCloud, columns: &[&str]) -> f64 {
    columns
        .iter()
        .map(|c| pc.imprints_for_timed(c).expect("imprint build").1)
        .sum()
}

fn open_stream(store: &Scratch) -> (PointCloud, f64) {
    let _ = std::fs::remove_file(store.wal_path());
    let (pc, open_s) = timed(|| PointCloud::open_ingest(store.path(), DURABILITY));
    let pc = pc.expect("open ingest table");
    // Built now so that every INSERT refreshes them incrementally.
    build_imprints(&pc, &["x", "y"]);
    (pc, open_s)
}

/// Run the set-up sequence of `workload` from scratch.
pub fn set_up(workload: Workload, inputs: &Inputs, scale: &Scale) -> System {
    let t0 = Instant::now();
    let mut times = SetupTimes::default();
    let mut pc = PointCloud::new();
    let report = Loader::new(LoadMethod::Binary)
        .load_files_report(&mut pc, &inputs.las_files)
        .expect("bulk load");
    times.load_s = report.stats.wall_seconds;
    times.decode_s = report.stats.decode_seconds;
    let points = pc.num_points();
    assert_eq!(
        points, inputs.num_points,
        "the loader must load every generated point"
    );
    let data_bytes = pc.data_bytes() as u64;

    let mut store = None;
    let mut catalog = lidardb::scene_catalog(Arc::new(PointCloud::new()), &inputs.scene);
    let table = match workload {
        Workload::NavFlat | Workload::AdhocRefine => {
            let columns: &[&str] = if workload == Workload::NavFlat {
                &["x", "y"]
            } else {
                &["x", "y", "classification"]
            };
            times.imprint_build_s = build_imprints(&pc, columns);
            let pc = Arc::new(pc);
            catalog.register_pointcloud("points", Arc::clone(&pc));
            Table::Flat(pc)
        }
        Workload::NavTiled => {
            let dir = Scratch::new("tiles");
            let opts = TileOptions {
                target_rows: scale.tile_rows,
                ..TileOptions::default()
            };
            let (saved, save_s) = timed(|| pc.save_tiled(dir.path(), &opts));
            saved.expect("save_tiled");
            times.save_s = save_s;
            times.saved_bytes = dir_bytes(dir.path());
            drop(pc);
            let (tc, open_s) = timed(|| TiledCloud::open(dir.path()));
            let tc = Arc::new(tc.expect("open tiled"));
            times.open_s = open_s;
            // A working set four times the program's own cache.
            tc.set_resident_budget(data_bytes / 4);
            catalog.register_tiled("points", Arc::clone(&tc));
            store = Some(dir);
            Table::Tiled(tc)
        }
        Workload::IngestMixed => {
            let dir = Scratch::new("ingest");
            let (saved, save_s) = timed(|| pc.save_dir(dir.path()));
            saved.expect("save base dump");
            times.save_s = save_s;
            times.saved_bytes = dir_bytes(dir.path());
            drop(pc);
            let (pc, open_s) = open_stream(&dir);
            times.open_s = open_s;
            let pc = Arc::new(RwLock::new(pc));
            catalog.register_stream("points", Arc::clone(&pc));
            store = Some(dir);
            Table::Stream(pc)
        }
    };

    let server = Server::bind("127.0.0.1:0", catalog.clone())
        .and_then(Server::spawn)
        .expect("bind loopback server");
    let client = Client::connect(server.addr()).expect("connect");
    times.total_s = t0.elapsed().as_secs_f64();
    System {
        table,
        catalog,
        client,
        times,
        points,
        server,
        store,
    }
}

/// What teardown measured, outside every clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Teardown {
    /// Bytes on disk of the table the workload served, persisted.
    pub disk_bytes: u64,
    /// Of which write-ahead log.
    pub wal_bytes: u64,
    /// Rows those bytes hold.
    pub disk_points: u64,
    /// `save_dir` seconds where teardown had to persist the table itself.
    pub save_s: f64,
    /// Seconds of the cold reopen (`ingest_mixed`).
    pub recovery_s: f64,
    /// Rows the cold reopen recovered (`ingest_mixed`).
    pub recovered_rows: u64,
}

impl System {
    /// `ingest_mixed`: replace the stream table by a fresh one opened from
    /// the same base dump with an empty log, so every pass starts from the
    /// same state. Returns the open time.
    pub fn reset_stream(&mut self) -> f64 {
        let Table::Stream(lock) = &self.table else {
            return 0.0;
        };
        let store = self.store.as_ref().expect("ingest store");
        let mut guard = lock.write().expect("stream lock");
        // Close the old log before deleting it.
        *guard = PointCloud::new();
        let (pc, open_s) = open_stream(store);
        *guard = pc;
        open_s
    }

    /// Stop serving and drop the table, measuring nothing (between the
    /// repeated set-ups).
    pub fn tear_down_quietly(self) {
        let System { client, server, .. } = self;
        drop(client);
        server.shutdown();
    }

    /// Stop serving, persist what is not yet on disk, and measure it.
    /// `acked_rows` is how many inserted rows the last pass saw
    /// acknowledged as durable.
    pub fn tear_down(self, acked_rows: u64) -> Teardown {
        let System {
            table,
            client,
            server,
            store,
            points,
            catalog,
            ..
        } = self;
        drop(client);
        server.shutdown();
        drop(catalog);
        let mut out = Teardown {
            disk_points: points as u64,
            ..Teardown::default()
        };
        match table {
            Table::Flat(pc) => {
                let dir = Scratch::new("dump");
                let (saved, save_s) = timed(|| pc.save_dir(dir.path()));
                saved.expect("save_dir");
                out.save_s = save_s;
                out.disk_bytes = dir_bytes(dir.path());
            }
            Table::Tiled(tc) => {
                out.disk_bytes = dir_bytes(tc.dir());
            }
            Table::Stream(lock) => {
                let store = store.as_ref().expect("ingest store");
                // Dropped unsealed: only what reached the log survives.
                drop(lock);
                out.wal_bytes = dir_bytes(&store.wal_path());
                out.disk_bytes = dir_bytes(store.path()) + out.wal_bytes;
                out.disk_points = points as u64 + acked_rows;
                let cold = PointCloud::open_ingest(store.path(), DURABILITY)
                    .expect("cold reopen of the ingest table");
                let report = cold
                    .recovery_report()
                    .expect("ingest tables report recovery");
                out.recovery_s = report.seconds;
                out.recovered_rows = report.total_rows as u64;
            }
        }
        out
    }
}
