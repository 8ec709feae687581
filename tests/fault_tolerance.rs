//! End-to-end acceptance test for fault-tolerant ingestion: a 16-tile
//! survey with three corrupted tiles must load its 13 good tiles under
//! `LoadPolicy::SkipCorrupt` (naming every quarantined file), and must
//! fail fast with a typed error naming the *first* bad file under
//! `LoadPolicy::FailFast`.

use std::path::PathBuf;

use lidardb::prelude::*;
use lidardb_test_support::ScratchDir;

const FILES: usize = 16;
const PER_FILE: usize = 40;

/// Write 16 valid LAS tiles, then corrupt tiles 2, 7 and 11 three
/// different ways: whole-file garbage, truncation, and a bad magic.
fn make_survey(dir: &std::path::Path) -> Vec<PathBuf> {
    std::fs::create_dir_all(dir).unwrap();
    let mut paths = Vec::new();
    for f in 0..FILES {
        let recs: Vec<PointRecord> = (0..PER_FILE)
            .map(|i| PointRecord {
                x: (f * PER_FILE + i) as f64 * 0.1,
                y: 25.0,
                z: 1.5,
                classification: 2,
                gps_time: (f * PER_FILE + i) as f64,
                ..Default::default()
            })
            .collect();
        let header = LasHeader::builder()
            .scale(0.01, 0.01, 0.01)
            .compression(Compression::None)
            .build();
        let path = dir.join(format!("tile{f:02}.las"));
        lidardb::las::write_las_file(&path, header, &recs).unwrap();
        paths.push(path);
    }
    // Tile 2: replaced with garbage that is not LAS at all.
    std::fs::write(&paths[2], b"this is definitely not a point cloud").unwrap();
    // Tile 7: truncated mid-record.
    let bytes = std::fs::read(&paths[7]).unwrap();
    std::fs::write(&paths[7], &bytes[..bytes.len() / 2]).unwrap();
    // Tile 11: valid length, broken magic.
    let mut bytes = std::fs::read(&paths[11]).unwrap();
    bytes[0] ^= 0xFF;
    std::fs::write(&paths[11], &bytes).unwrap();
    paths
}

#[test]
fn skip_corrupt_loads_the_good_thirteen_and_names_the_bad() {
    let dir = ScratchDir::new("ft_skip_corrupt");
    let paths = make_survey(dir.path());

    let mut pc = PointCloud::new();
    let report = Loader::new(LoadMethod::Binary)
        .with_policy(LoadPolicy::SkipCorrupt { max_retries: 2 })
        .load_files_report(&mut pc, &paths)
        .unwrap();

    assert_eq!(pc.num_points(), (FILES - 3) * PER_FILE);
    assert_eq!(report.stats.files, FILES - 3);
    assert_eq!(report.files.len(), FILES);
    let quarantined = report.quarantined();
    assert_eq!(
        quarantined,
        vec![paths[2].as_path(), paths[7].as_path(), paths[11].as_path()],
        "the report names exactly the corrupted tiles, in order"
    );
    // Structural corruption is not worth retrying.
    for f in &report.files {
        if matches!(f.outcome, FileOutcome::Quarantined(_)) {
            assert_eq!(f.retries, 0, "{}", f.path.display());
        }
    }
    // The surviving points are the good tiles' points, still queryable.
    let gps = pc.f64_column("gps_time").unwrap();
    assert!(gps.windows(2).all(|w| w[0] < w[1]), "file order preserved");
}

#[test]
fn fail_fast_names_the_first_bad_file() {
    let dir = ScratchDir::new("ft_fail_fast");
    let paths = make_survey(dir.path());

    let mut pc = PointCloud::new();
    let err = Loader::new(LoadMethod::Binary)
        .load_files(&mut pc, &paths)
        .unwrap_err();
    match &err {
        CoreError::FileLoad { path, .. } => {
            assert_eq!(path, &paths[2], "first corrupted tile in input order")
        }
        other => panic!("expected CoreError::FileLoad, got {other}"),
    }
    assert!(err.to_string().contains("tile02"), "{err}");
    assert_eq!(pc.num_points(), 0, "fail-fast leaves the table untouched");
}
