//! Bulk loading from LAS / laz-lite files.
//!
//! The binary path of §3.2: every input file is decoded and transposed
//! into one little-endian binary dump per column; the dumps are appended
//! to the flat table with `COPY BINARY`. File decode + transpose is
//! CPU-bound and embarrassingly parallel, so it fans out over scoped
//! worker threads; the appends are serialised in file order to keep loads
//! deterministic.
//!
//! The CSV path formats the same records to text and parses them back —
//! the cost "most of the systems" pay that the paper's loader avoids.
//!
//! # Fault isolation
//!
//! A survey-scale load ingests tens of thousands of tiles, and some of
//! them *will* be bad. Each file is therefore an isolation unit:
//!
//! * worker panics are caught per file and surface as
//!   [`CoreError::WorkerPanic`] instead of tearing the load down;
//! * under [`LoadPolicy::SkipCorrupt`], transient I/O errors are retried
//!   a bounded number of times, and files that still fail are
//!   **quarantined** — the other files load, and the [`LoadReport`] names
//!   every quarantined file with its error;
//! * under [`LoadPolicy::FailFast`] (the default) the first failing file
//!   in deterministic file order aborts the load with a typed error; the
//!   binary path appends nothing in that case (the CSV comparison path is
//!   row-at-a-time by design, so files before the bad one stay loaded).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use lidardb_las::read_las_file;

use crate::csv;
use crate::error::CoreError;
use crate::fault::{FaultInjector, FaultKind, FaultStage};
use crate::pointcloud::PointCloud;
use crate::soa::ColumnArrays;

/// Which ingestion path to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMethod {
    /// Decode → binary column dumps → `COPY BINARY` (the paper's loader).
    Binary,
    /// Decode → CSV text → parse → row-at-a-time append (the comparison).
    Csv,
}

/// How the loader reacts to a file that fails to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadPolicy {
    /// Abort on the first bad file (in file order); the table receives
    /// nothing. The right default for reproducible experiments.
    #[default]
    FailFast,
    /// Retry transient I/O errors up to `max_retries` times per file,
    /// then quarantine files that still fail and load the rest. The
    /// right choice for survey-scale ingestion where a bad tile must not
    /// cost the other fifty thousand.
    SkipCorrupt {
        /// Bounded retries per file for transient errors.
        max_retries: u32,
    },
}

/// Outcome of a bulk load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadStats {
    /// Files ingested.
    pub files: usize,
    /// Points ingested.
    pub points: usize,
    /// Seconds spent decoding files (includes laz-lite decompression).
    pub decode_seconds: f64,
    /// Seconds spent converting (transpose / CSV format+parse).
    pub convert_seconds: f64,
    /// Seconds spent appending into the table.
    pub append_seconds: f64,
    /// End-to-end wall clock (can be less than the sum of the phases when
    /// the binary path overlaps them across worker threads).
    pub wall_seconds: f64,
}

impl LoadStats {
    /// Points per second of end-to-end wall clock.
    pub fn points_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.points as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Extrapolated wall-clock days to load `n` points at this rate — the
    /// number E1 compares with the paper's "less than one day" for the
    /// 640-billion-point AHN2.
    pub fn projected_days(&self, n: u64) -> f64 {
        n as f64 / self.points_per_second() / 86_400.0
    }
}

/// What happened to one input file.
#[derive(Debug, Clone, PartialEq)]
pub enum FileOutcome {
    /// Decoded and appended to the table.
    Loaded,
    /// Failed after retries and was skipped; the table never saw it.
    Quarantined(String),
}

/// Per-file record in a [`LoadReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct FileReport {
    /// The input file.
    pub path: PathBuf,
    /// Loaded or quarantined.
    pub outcome: FileOutcome,
    /// Transient-error retries this file consumed.
    pub retries: u32,
    /// Points contributed (0 if quarantined).
    pub points: usize,
    /// File size in bytes (0 if unreadable).
    pub bytes: u64,
}

/// Structured outcome of a bulk load: aggregate stats plus a per-file
/// audit trail.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Aggregate throughput numbers (files counts only loaded files).
    pub stats: LoadStats,
    /// One entry per input file, in file order.
    pub files: Vec<FileReport>,
}

impl LoadReport {
    /// Paths of every quarantined file, in file order.
    pub fn quarantined(&self) -> Vec<&Path> {
        self.files
            .iter()
            .filter(|f| matches!(f.outcome, FileOutcome::Quarantined(_)))
            .map(|f| f.path.as_path())
            .collect()
    }

    /// Number of files that loaded.
    pub fn loaded(&self) -> usize {
        self.files
            .iter()
            .filter(|f| f.outcome == FileOutcome::Loaded)
            .count()
    }

    /// Total retries consumed across all files.
    pub fn total_retries(&self) -> u32 {
        self.files.iter().map(|f| f.retries).sum()
    }

    /// Total input bytes decoded (loaded files only).
    pub fn bytes_loaded(&self) -> u64 {
        self.files
            .iter()
            .filter(|f| f.outcome == FileOutcome::Loaded)
            .map(|f| f.bytes)
            .sum()
    }

    /// Input megabytes per second of wall clock (loaded files only).
    pub fn mb_per_second(&self) -> f64 {
        if self.stats.wall_seconds > 0.0 {
            self.bytes_loaded() as f64 / 1e6 / self.stats.wall_seconds
        } else {
            0.0
        }
    }
}

/// Bulk loader configuration.
#[derive(Debug, Clone)]
pub struct Loader {
    method: LoadMethod,
    threads: usize,
    policy: LoadPolicy,
    fault: Option<Arc<FaultInjector>>,
}

/// Result of decoding one file: per-column dumps, point count, decode and
/// convert seconds.
type Decoded = (Vec<Vec<u8>>, usize, f64, f64);

impl Loader {
    /// A loader using `method`, one worker per available core, and the
    /// [`LoadPolicy::FailFast`] policy.
    pub fn new(method: LoadMethod) -> Self {
        Loader {
            method,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            policy: LoadPolicy::default(),
            fault: None,
        }
    }

    /// Override the worker count (the CSV path is single-threaded by
    /// design — it models row-at-a-time text ingestion).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Override the error-handling policy.
    pub fn with_policy(mut self, policy: LoadPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attach fault-injection hooks (tests only).
    pub fn with_fault_injector(mut self, fi: Arc<FaultInjector>) -> Self {
        self.fault = Some(fi);
        self
    }

    /// Load every file into `pc`. Files are applied in the given order.
    /// Returns aggregate stats; use [`Loader::load_files_report`] for the
    /// per-file breakdown.
    pub fn load_files(
        &self,
        pc: &mut PointCloud,
        paths: &[PathBuf],
    ) -> Result<LoadStats, CoreError> {
        self.load_files_report(pc, paths).map(|r| r.stats)
    }

    /// Load every file into `pc`, returning the full [`LoadReport`].
    pub fn load_files_report(
        &self,
        pc: &mut PointCloud,
        paths: &[PathBuf],
    ) -> Result<LoadReport, CoreError> {
        // Bulk ingestion is bytes → table, the same stage taxonomy slot as
        // `open_dir` (see DESIGN.md "Observability").
        let mut stage = crate::trace::stage(crate::metrics::Stage::PersistLoad);
        let mut report = match self.method {
            LoadMethod::Binary => self.load_binary(pc, paths)?,
            LoadMethod::Csv => self.load_csv_path(pc, paths)?,
        };
        let quarantined = report
            .files
            .iter()
            .filter(|f| matches!(f.outcome, FileOutcome::Quarantined(_)))
            .count();
        stage.set_rows(paths.len() as u64, report.stats.points as u64);
        if quarantined > 0 {
            stage.add_flags(crate::trace::FLAG_FAULT);
        }
        report.stats.wall_seconds = stage.finish(report.stats.points).as_secs_f64();
        let m = crate::metrics::MetricsRegistry::global();
        m.files_loaded.add(report.stats.files as u64);
        m.points_loaded.add(report.stats.points as u64);
        m.files_quarantined.add(quarantined as u64);
        Ok(report)
    }

    /// Convenience: load every `.las`/`.lazl` file of a directory in
    /// lexicographic order.
    pub fn load_dir(&self, pc: &mut PointCloud, dir: &Path) -> Result<LoadStats, CoreError> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(lidardb_las::LasError::Io)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                matches!(
                    p.extension().and_then(|e| e.to_str()),
                    Some("las" | "laz" | "lazl")
                )
            })
            .collect();
        paths.sort();
        self.load_files(pc, &paths)
    }

    /// Decode one file with fault hooks, panic containment, and bounded
    /// retries for transient errors.
    fn decode_one(&self, path: &Path) -> (Result<Decoded, CoreError>, u32) {
        let max_retries = match self.policy {
            LoadPolicy::FailFast => 0,
            LoadPolicy::SkipCorrupt { max_retries } => max_retries,
        };
        let name = path.to_string_lossy();
        let mut retries = 0;
        loop {
            let t0 = Instant::now();
            let attempt: std::thread::Result<Result<Decoded, CoreError>> =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if let Some(kind) = self
                        .fault
                        .as_deref()
                        .and_then(|fi| fi.fire(FaultStage::LoadDecode, &name))
                    {
                        match kind {
                            FaultKind::Crash => panic!("injected worker panic for {name}"),
                            FaultKind::IoError => {
                                return Err(lidardb_las::LasError::Io(kind.to_io_error()).into())
                            }
                            _ => {
                                return Err(CoreError::Corrupt(format!(
                                    "injected decode corruption in {name}"
                                )))
                            }
                        }
                    }
                    let (_, records) = read_las_file(path)?;
                    let decode = t0.elapsed().as_secs_f64();
                    let t1 = Instant::now();
                    let dumps = ColumnArrays::from_records(&records).to_dumps();
                    Ok((dumps, records.len(), decode, t1.elapsed().as_secs_f64()))
                }));
            let result = match attempt {
                Ok(r) => r,
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    Err(CoreError::WorkerPanic(format!("{name}: {msg}")))
                }
            };
            match result {
                Err(e) if e.is_transient() && retries < max_retries => retries += 1,
                other => return (other, retries),
            }
        }
    }

    fn load_binary(&self, pc: &mut PointCloud, paths: &[PathBuf]) -> Result<LoadReport, CoreError> {
        // Fan out decode+transpose, keep results indexed by file position.
        type Slot = (Result<Decoded, CoreError>, u32);
        let mut slots: Vec<Option<Slot>> = Vec::new();
        slots.resize_with(paths.len(), || None);
        let next = std::sync::atomic::AtomicUsize::new(0);
        let slots_mutex = parking_lot::Mutex::new(&mut slots);
        std::thread::scope(|s| {
            for _ in 0..self.threads.min(paths.len().max(1)) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= paths.len() {
                        break;
                    }
                    // decode_one contains panics, so this write always
                    // happens and every slot is filled when the scope ends.
                    let outcome = self.decode_one(&paths[i]);
                    slots_mutex.lock()[i] = Some(outcome);
                });
            }
        });
        let mut stats = LoadStats {
            files: 0,
            points: 0,
            decode_seconds: 0.0,
            convert_seconds: 0.0,
            append_seconds: 0.0,
            wall_seconds: 0.0,
        };
        let mut files = Vec::with_capacity(paths.len());
        // First pass: under FailFast any failure aborts before the table
        // is touched, keeping "error ⇒ table unchanged".
        if self.policy == LoadPolicy::FailFast {
            if let Some(pos) = slots.iter().position(|s| matches!(s, Some((Err(_), _)))) {
                let (result, _) = slots[pos].take().expect("position just matched");
                return Err(CoreError::FileLoad {
                    path: paths[pos].clone(),
                    source: Box::new(result.expect_err("position matched an Err slot")),
                });
            }
        }
        for (i, slot) in slots.into_iter().enumerate() {
            let (result, retries) = slot.expect("worker scope filled every slot");
            let bytes = std::fs::metadata(&paths[i]).map(|m| m.len()).unwrap_or(0);
            match result {
                Ok((dumps, n, decode, convert)) => {
                    stats.decode_seconds += decode;
                    stats.convert_seconds += convert;
                    let t0 = Instant::now();
                    pc.append_dumps(&dumps)?;
                    stats.append_seconds += t0.elapsed().as_secs_f64();
                    stats.points += n;
                    stats.files += 1;
                    files.push(FileReport {
                        path: paths[i].clone(),
                        outcome: FileOutcome::Loaded,
                        retries,
                        points: n,
                        bytes,
                    });
                }
                Err(e) => files.push(FileReport {
                    path: paths[i].clone(),
                    outcome: FileOutcome::Quarantined(e.to_string()),
                    retries,
                    points: 0,
                    bytes,
                }),
            }
        }
        Ok(LoadReport { stats, files })
    }

    fn load_csv_path(
        &self,
        pc: &mut PointCloud,
        paths: &[PathBuf],
    ) -> Result<LoadReport, CoreError> {
        let mut stats = LoadStats {
            files: 0,
            points: 0,
            decode_seconds: 0.0,
            convert_seconds: 0.0,
            append_seconds: 0.0,
            wall_seconds: 0.0,
        };
        let mut files = Vec::with_capacity(paths.len());
        for path in paths {
            let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            let (result, retries) = self.decode_csv_one(pc, path, &mut stats);
            match result {
                Ok(points) => {
                    stats.files += 1;
                    stats.points += points;
                    files.push(FileReport {
                        path: path.clone(),
                        outcome: FileOutcome::Loaded,
                        retries,
                        points,
                        bytes,
                    });
                }
                Err(e) if self.policy == LoadPolicy::FailFast => {
                    return Err(CoreError::FileLoad {
                        path: path.clone(),
                        source: Box::new(e),
                    })
                }
                Err(e) => files.push(FileReport {
                    path: path.clone(),
                    outcome: FileOutcome::Quarantined(e.to_string()),
                    retries,
                    points: 0,
                    bytes,
                }),
            }
        }
        Ok(LoadReport { stats, files })
    }

    /// One file through the CSV path, with the same retry policy as the
    /// binary path.
    fn decode_csv_one(
        &self,
        pc: &mut PointCloud,
        path: &Path,
        stats: &mut LoadStats,
    ) -> (Result<usize, CoreError>, u32) {
        let max_retries = match self.policy {
            LoadPolicy::FailFast => 0,
            LoadPolicy::SkipCorrupt { max_retries } => max_retries,
        };
        let name = path.to_string_lossy();
        let mut retries = 0;
        loop {
            let result: Result<usize, CoreError> = (|| {
                if let Some(kind) = self
                    .fault
                    .as_deref()
                    .and_then(|fi| fi.fire(FaultStage::LoadDecode, &name))
                {
                    return Err(match kind {
                        FaultKind::IoError => lidardb_las::LasError::Io(kind.to_io_error()).into(),
                        _ => CoreError::Corrupt(format!("injected decode corruption in {name}")),
                    });
                }
                let t0 = Instant::now();
                let (_, records) = read_las_file(path)?;
                stats.decode_seconds += t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                let text = csv::records_to_csv(&records);
                stats.convert_seconds += t1.elapsed().as_secs_f64();
                let t2 = Instant::now();
                let n = csv::load_csv(pc, &text)?;
                stats.append_seconds += t2.elapsed().as_secs_f64();
                Ok(n)
            })();
            match result {
                Err(e) if e.is_transient() && retries < max_retries => retries += 1,
                other => return (other, retries),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidardb_las::{write_las_file, Compression, LasHeader, PointRecord};

    fn make_files(dir: &Path, files: usize, per_file: usize) -> Vec<PathBuf> {
        std::fs::create_dir_all(dir).unwrap();
        let mut paths = Vec::new();
        for f in 0..files {
            let recs: Vec<PointRecord> = (0..per_file)
                .map(|i| PointRecord {
                    x: (f * per_file + i) as f64 * 0.1,
                    y: 50.0,
                    z: 2.0,
                    classification: 2,
                    gps_time: (f * per_file + i) as f64,
                    ..Default::default()
                })
                .collect();
            let path = dir.join(format!("t{f:02}.las"));
            write_las_file(
                &path,
                LasHeader::builder().compression(Compression::None).build(),
                &recs,
            )
            .unwrap();
            paths.push(path);
        }
        paths
    }

    #[test]
    fn binary_and_csv_paths_load_identical_tables() {
        let dir = lidardb_test_support::ScratchDir::vacant("loader_test_a");
        let paths = make_files(&dir, 4, 500);
        let mut a = PointCloud::new();
        let sa = Loader::new(LoadMethod::Binary)
            .load_files(&mut a, &paths)
            .unwrap();
        let mut b = PointCloud::new();
        let sb = Loader::new(LoadMethod::Csv)
            .load_files(&mut b, &paths)
            .unwrap();
        assert_eq!(sa.points, 2000);
        assert_eq!(sb.points, 2000);
        assert_eq!(a.num_points(), b.num_points());
        // Spot-check equality (CSV roundtrips exactly for these values).
        for row in [0usize, 999, 1999] {
            assert_eq!(a.record(row), b.record(row), "row {row}");
        }
        // Deterministic file order: gps_time monotone across files.
        let gps = a.f64_column("gps_time").unwrap();
        assert!(gps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn parallel_matches_single_threaded() {
        let dir = lidardb_test_support::ScratchDir::vacant("loader_test_b");
        let paths = make_files(&dir, 8, 300);
        let mut a = PointCloud::new();
        Loader::new(LoadMethod::Binary)
            .with_threads(1)
            .load_files(&mut a, &paths)
            .unwrap();
        let mut b = PointCloud::new();
        Loader::new(LoadMethod::Binary)
            .with_threads(8)
            .load_files(&mut b, &paths)
            .unwrap();
        assert_eq!(a.num_points(), b.num_points());
        let ga = a.f64_column("gps_time").unwrap();
        let gb = b.f64_column("gps_time").unwrap();
        assert_eq!(ga, gb, "file order preserved under parallel decode");
    }

    #[test]
    fn load_dir_filters_and_sorts() {
        let dir = lidardb_test_support::ScratchDir::vacant("loader_test_c");
        make_files(&dir, 3, 100);
        std::fs::write(dir.join("README.txt"), "not a las file").unwrap();
        let mut pc = PointCloud::new();
        let stats = Loader::new(LoadMethod::Binary)
            .load_dir(&mut pc, &dir)
            .unwrap();
        assert_eq!(stats.files, 3);
        assert_eq!(pc.num_points(), 300);
    }

    #[test]
    fn stats_are_plausible() {
        let dir = lidardb_test_support::ScratchDir::vacant("loader_test_d");
        let paths = make_files(&dir, 2, 2000);
        let mut pc = PointCloud::new();
        let s = Loader::new(LoadMethod::Binary)
            .load_files(&mut pc, &paths)
            .unwrap();
        assert!(s.points_per_second() > 0.0);
        assert!(s.wall_seconds > 0.0);
        let days = s.projected_days(640_000_000_000);
        assert!(days.is_finite() && days > 0.0);
    }

    #[test]
    fn missing_file_errors() {
        let mut pc = PointCloud::new();
        let err = Loader::new(LoadMethod::Binary)
            .load_files(&mut pc, &[PathBuf::from("/nonexistent/file.las")])
            .unwrap_err();
        match &err {
            CoreError::FileLoad { path, source } => {
                assert!(path.ends_with("file.las"));
                assert!(matches!(**source, CoreError::Las(_)));
            }
            other => panic!("expected FileLoad, got {other}"),
        }
    }

    #[test]
    fn fail_fast_aborts_on_first_bad_file_in_order() {
        let dir = lidardb_test_support::ScratchDir::vacant("loader_test_ff");
        let mut paths = make_files(&dir, 5, 50);
        // Corrupt file index 1 (garbage) and index 3 (truncated).
        std::fs::write(&paths[1], b"not a las file at all").unwrap();
        let bytes = std::fs::read(&paths[3]).unwrap();
        std::fs::write(&paths[3], &bytes[..40]).unwrap();
        let mut pc = PointCloud::new();
        let err = Loader::new(LoadMethod::Binary)
            .load_files(&mut pc, &paths)
            .unwrap_err();
        // The typed error names the *first* bad file in input order.
        match &err {
            CoreError::FileLoad { path, .. } => assert_eq!(path, &paths[1]),
            other => panic!("expected FileLoad, got {other}"),
        }
        assert_eq!(
            pc.num_points(),
            0,
            "binary FailFast appends nothing on error"
        );
        // The CSV comparison path also fails fast (it appends
        // row-at-a-time, so files before the bad one stay loaded).
        let mut pc_csv = PointCloud::new();
        let err = Loader::new(LoadMethod::Csv)
            .load_files(&mut pc_csv, &paths)
            .unwrap_err();
        match &err {
            CoreError::FileLoad { path, .. } => assert_eq!(path, &paths[1]),
            other => panic!("expected FileLoad, got {other}"),
        }
        // Drop the corrupt files and confirm the batch loads clean.
        paths.remove(3);
        paths.remove(1);
        Loader::new(LoadMethod::Binary)
            .load_files(&mut pc, &paths)
            .unwrap();
        assert_eq!(pc.num_points(), 150);
    }

    #[test]
    fn skip_corrupt_quarantines_and_loads_the_rest() {
        let dir = lidardb_test_support::ScratchDir::vacant("loader_test_sc");
        let paths = make_files(&dir, 6, 80);
        std::fs::write(&paths[2], b"garbage").unwrap();
        let mut pc = PointCloud::new();
        let report = Loader::new(LoadMethod::Binary)
            .with_policy(LoadPolicy::SkipCorrupt { max_retries: 2 })
            .load_files_report(&mut pc, &paths)
            .unwrap();
        assert_eq!(pc.num_points(), 5 * 80);
        assert_eq!(report.loaded(), 5);
        assert_eq!(report.quarantined(), vec![paths[2].as_path()]);
        assert_eq!(report.stats.files, 5);
        assert_eq!(report.stats.points, 400);
        assert!(report.bytes_loaded() > 0);
        let q = &report.files[2];
        assert!(matches!(&q.outcome, FileOutcome::Quarantined(msg) if !msg.is_empty()));
        assert_eq!(q.retries, 0, "structural corruption is not retried");
        // File order of the loaded remainder is preserved.
        let gps = pc.f64_column("gps_time").unwrap();
        assert!(gps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn transient_errors_are_retried_with_bound() {
        let dir = lidardb_test_support::ScratchDir::vacant("loader_test_retry");
        let paths = make_files(&dir, 3, 40);
        // Two transient failures on file 1, then it succeeds.
        let fi = Arc::new(FaultInjector::new());
        fi.inject_n(
            FaultStage::LoadDecode,
            Some("t01"),
            FaultKind::IoError,
            0,
            2,
        );
        let mut pc = PointCloud::new();
        let report = Loader::new(LoadMethod::Binary)
            .with_policy(LoadPolicy::SkipCorrupt { max_retries: 3 })
            .with_fault_injector(Arc::clone(&fi))
            .load_files_report(&mut pc, &paths)
            .unwrap();
        assert_eq!(pc.num_points(), 120, "all files loaded after retries");
        assert_eq!(report.files[1].retries, 2);
        assert_eq!(report.files[1].outcome, FileOutcome::Loaded);
        // More transient failures than the budget → quarantined.
        let fi = Arc::new(FaultInjector::new());
        fi.inject_n(
            FaultStage::LoadDecode,
            Some("t00"),
            FaultKind::IoError,
            0,
            99,
        );
        let mut pc = PointCloud::new();
        let report = Loader::new(LoadMethod::Binary)
            .with_policy(LoadPolicy::SkipCorrupt { max_retries: 2 })
            .with_fault_injector(fi)
            .load_files_report(&mut pc, &paths)
            .unwrap();
        assert_eq!(report.files[0].retries, 2, "retry budget respected");
        assert!(matches!(
            report.files[0].outcome,
            FileOutcome::Quarantined(_)
        ));
        assert_eq!(pc.num_points(), 80);
    }

    #[test]
    fn worker_panic_becomes_typed_error() {
        let dir = lidardb_test_support::ScratchDir::vacant("loader_test_panic");
        let paths = make_files(&dir, 4, 30);
        let fi = Arc::new(FaultInjector::new());
        fi.inject(FaultStage::LoadDecode, Some("t02"), FaultKind::Crash);
        // FailFast: the panic surfaces as WorkerPanic naming the file.
        let mut pc = PointCloud::new();
        let err = Loader::new(LoadMethod::Binary)
            .with_fault_injector(Arc::clone(&fi))
            .load_files(&mut pc, &paths)
            .unwrap_err();
        match &err {
            CoreError::FileLoad { path, source } => {
                assert!(path.ends_with("t02.las"), "{}", path.display());
                assert!(matches!(**source, CoreError::WorkerPanic(_)), "{source}");
            }
            other => panic!("expected FileLoad(WorkerPanic), got {other}"),
        }
        assert_eq!(pc.num_points(), 0);
        // SkipCorrupt: the panicking file is quarantined, others load.
        let fi = Arc::new(FaultInjector::new());
        fi.inject(FaultStage::LoadDecode, Some("t02"), FaultKind::Crash);
        let report = Loader::new(LoadMethod::Binary)
            .with_policy(LoadPolicy::SkipCorrupt { max_retries: 1 })
            .with_fault_injector(fi)
            .load_files_report(&mut pc, &paths)
            .unwrap();
        assert_eq!(pc.num_points(), 90);
        assert_eq!(report.quarantined().len(), 1);
        assert!(matches!(
            &report.files[2].outcome,
            FileOutcome::Quarantined(msg) if msg.contains("panicked")
        ));
    }
}
