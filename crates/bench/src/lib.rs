//! # lidardb-bench — the paper reproducer
//!
//! What the experiments of the `harness` binary share: a scene fixture on
//! a scratch directory of its own, one synthetic-cloud builder, one
//! many-client burst driver, and timing that reports its sample count and
//! spread. Performance over the wire is measured by `benchmark/`, not here.

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

use lidardb_core::{LoadMethod, Loader, PointCloud};
use lidardb_datagen::{Scene, SceneConfig};
use lidardb_geom::Envelope;
use lidardb_las::{Compression, PointRecord};
use lidardb_test_support::ScratchDir;

/// Standard experiment fixture: a scene, its tile files on disk, and the
/// loaded point cloud.
pub struct Fixture {
    /// The synthetic world.
    pub scene: Scene,
    /// Tile files (uncompressed LAS), in `scratch/las`.
    pub las_paths: Vec<PathBuf>,
    /// Tile files (laz-lite), in `scratch/lazl`.
    pub lazl_paths: Vec<PathBuf>,
    /// The loaded flat table.
    pub pc: PointCloud,
    /// Holds the tile files; experiments may add directories of their own.
    pub scratch: ScratchDir,
}

impl Fixture {
    /// Build a fixture of roughly `extent_m² × density` points.
    pub fn build(seed: u64, extent_m: f64, tiles_per_side: usize, density: f64) -> Self {
        let scene = Scene::generate(SceneConfig {
            seed,
            origin: (100_000.0, 450_000.0),
            extent_m,
        });
        let scratch = ScratchDir::new("harness");
        let tiles = |sub: &str, compression| {
            write_tiles(
                &scene,
                &scratch.join(sub),
                tiles_per_side,
                density,
                compression,
            )
        };
        let las_paths = tiles("las", Compression::None);
        let lazl_paths = tiles("lazl", Compression::LazLite);
        let mut pc = PointCloud::new();
        Loader::new(LoadMethod::Binary)
            .load_files(&mut pc, &las_paths)
            .expect("fixture load");
        Fixture {
            scene,
            las_paths,
            lazl_paths,
            pc,
            scratch,
        }
    }

    /// A query window covering `fraction` of the scene's area, anchored
    /// a third of the way in (so it straddles tiles).
    pub fn window(&self, fraction: f64) -> Envelope {
        let env = self.scene.envelope();
        let side = (fraction.clamp(0.0, 1.0)).sqrt();
        let x0 = env.min_x + env.width() * 0.31;
        let y0 = env.min_y + env.height() * 0.29;
        Envelope::new(
            x0,
            y0,
            (x0 + env.width() * side).min(env.max_x),
            (y0 + env.height() * side).min(env.max_y),
        )
        .expect("valid window")
    }
}

fn write_tiles(
    scene: &Scene,
    dir: &Path,
    tiles_per_side: usize,
    density: f64,
    compression: Compression,
) -> Vec<PathBuf> {
    std::fs::create_dir_all(dir).expect("create tile dir");
    let env = scene.envelope();
    let template = lidardb_las::LasHeader::builder()
        .scale(0.01, 0.01, 0.01)
        .offset(env.min_x, env.min_y, 0.0)
        .compression(compression)
        .build();
    let tiles = lidardb_datagen::TileSet::generate(scene, tiles_per_side, density);
    let ext = match compression {
        Compression::None => "las",
        Compression::LazLite => "lazl",
    };
    tiles
        .tiles()
        .iter()
        .map(|tile| {
            let path = dir.join(format!("{}.{ext}", tile.name));
            lidardb_las::write_las_file(&path, template, &tile.records).expect("write tile");
            path
        })
        .collect()
}

/// Deterministic 64-bit LCG stream (the low bits are weak: shift before
/// reducing).
pub fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    }
}

/// `n` points uniform over a 10 km square (z up to 120 m, cyclic
/// classification / intensity, monotone gps_time) — the unclustered cloud
/// of the scaling and many-client experiments.
pub fn synthetic_cloud(n: usize, seed: u64) -> PointCloud {
    const CHUNK: usize = 1_000_000;
    let mut next = lcg(seed);
    let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
    let mut pc = PointCloud::new();
    for base in (0..n).step_by(CHUNK) {
        let chunk: Vec<PointRecord> = (base..(base + CHUNK).min(n))
            .map(|i| PointRecord {
                x: unit() * 10_000.0,
                y: unit() * 10_000.0,
                z: unit() * 120.0,
                classification: (i % 12) as u8,
                intensity: (i % 5000) as u16,
                gps_time: i as f64 * 1e-4,
                ..Default::default()
            })
            .collect();
        pc.append_records(&chunk).expect("append");
    }
    pc
}

/// Time a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// What a repeated timing measured, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Median sample.
    pub median: f64,
    /// Fastest sample.
    pub min: f64,
    /// Slowest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Timing {
    /// Reduce a non-empty set of samples.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Timing {
            median: samples[samples.len() / 2],
            min: samples[0],
            max: samples[samples.len() - 1],
            n: samples.len(),
        }
    }

    /// A table cell in milliseconds: `median [min–max] n=…`.
    pub fn ms(&self) -> String {
        self.scaled(1e3)
    }

    /// The same cell in another unit (`scale` = units per second).
    pub fn scaled(&self, scale: f64) -> String {
        format!(
            "{:.3} [{:.3}–{:.3}] n={}",
            self.median * scale,
            self.min * scale,
            self.max * scale,
            self.n
        )
    }
}

/// Time `n` runs of a closure after one discarded warm-up run (which
/// builds lazy indexes etc.).
pub fn median_seconds(n: usize, mut f: impl FnMut()) -> Timing {
    f();
    Timing::from_samples((0..n.max(1)).map(|_| timed(&mut f).1).collect())
}

/// How one statement of a burst resolved. Anything else a client sees is
/// an untyped failure and aborts the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Cancelled,
    Overloaded,
}

/// Open-loop burst: `clients` threads, each building its client state
/// with `client(index)` and then firing `per_client` statements
/// back-to-back through the closure that returned.
pub fn burst<F: FnMut(usize) -> Outcome>(
    clients: usize,
    per_client: usize,
    client: impl Fn(usize) -> F + Sync,
) -> BurstSummary {
    let samples: Vec<(Outcome, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let client = &client;
                s.spawn(move || {
                    let mut run = client(t);
                    (0..per_client)
                        .map(|q| timed(|| run(q)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("burst client must not panic"))
            .collect()
    });
    let count = |o: Outcome| samples.iter().filter(|s| s.0 == o).count();
    let mut ms: Vec<f64> = samples.iter().map(|s| s.1 * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    BurstSummary {
        ok: count(Outcome::Ok),
        cancelled: count(Outcome::Cancelled),
        overloaded: count(Outcome::Overloaded),
        p50_ms: percentile(&ms, 0.50),
        p99_ms: percentile(&ms, 0.99),
        max_ms: ms.last().copied().unwrap_or(0.0),
    }
}

/// Outcome counts and latency percentiles (ms) of one [`burst`].
#[derive(Debug, Clone, Copy)]
pub struct BurstSummary {
    pub ok: usize,
    pub cancelled: usize,
    pub overloaded: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
}

impl BurstSummary {
    /// Column headings matching [`fmt::Display`].
    pub const HEADER: &'static str = "   ok  cancelled  overloaded    p50 ms    p99 ms    max ms";
}

impl fmt::Display for BurstSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>5} {:>10} {:>11} {:>9.1} {:>9.1} {:>9.1}",
            self.ok, self.cancelled, self.overloaded, self.p50_ms, self.p99_ms, self.max_ms
        )
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidardb_test_support::area;

    #[test]
    fn fixture_builds_windows_scale_and_scratch_is_removed() {
        let f = Fixture::build(1, 200.0, 2, 0.3);
        assert!(f.pc.num_points() > 5_000);
        assert_eq!(f.las_paths.len(), 4);
        assert_eq!(f.lazl_paths.len(), 4);
        assert!(area(&f.window(0.001)) < area(&f.window(0.1)));
        assert!(f.scene.envelope().contains_envelope(&f.window(0.1)));
        let dir = f.scratch.to_path_buf();
        assert!(f.las_paths[0].starts_with(&dir) && dir.is_dir());
        drop(f);
        assert!(!dir.exists(), "scratch directory must be removed on drop");
    }

    #[test]
    fn timing_reports_median_spread_and_count() {
        let t = Timing::from_samples(vec![0.003, 0.001, 0.002]);
        assert_eq!((t.median, t.min, t.max, t.n), (0.002, 0.001, 0.003, 3));
        assert_eq!(t.scaled(1e3), "2.000 [1.000–3.000] n=3");
        let mut calls = 0;
        assert_eq!(median_seconds(4, || calls += 1).n, 4);
        assert_eq!(calls, 5, "one warm-up plus n samples");
    }

    #[test]
    fn burst_runs_every_statement_and_summarises() {
        let s = burst(3, 4, |t| {
            move |q| {
                if (t + q) % 2 == 0 {
                    Outcome::Ok
                } else {
                    Outcome::Overloaded
                }
            }
        });
        assert_eq!((s.ok, s.cancelled, s.overloaded), (6, 0, 6));
        assert!(s.p50_ms <= s.p99_ms && s.p99_ms <= s.max_ms);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }
}
