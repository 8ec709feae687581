//! The CSV text route stops at a file that does not decode. Its table
//! equals the binary loader's column by column in
//! `tests/end_to_end_pipeline.rs`.

use std::path::{Path, PathBuf};

use lidardb_baselines::load_via_csv;
use lidardb_las::{write_las_file, Compression, LasHeader, PointRecord};
use lidardb_test_support::ScratchDir;

fn make_files(dir: &Path, files: usize, per_file: usize) -> Vec<PathBuf> {
    (0..files)
        .map(|f| {
            let recs: Vec<PointRecord> = (0..per_file)
                .map(|i| PointRecord {
                    x: (f * per_file + i) as f64 * 0.1,
                    y: 50.0,
                    gps_time: (f * per_file + i) as f64,
                    ..Default::default()
                })
                .collect();
            let path = dir.join(format!("t{f:02}.las"));
            let header = LasHeader::builder().compression(Compression::None).build();
            write_las_file(&path, header, &recs).unwrap();
            path
        })
        .collect()
}

#[test]
fn a_file_that_does_not_decode_fails_the_route() {
    let dir = ScratchDir::new("csv_route");
    let mut paths = make_files(dir.path(), 4, 500);
    assert_eq!(load_via_csv(&paths).unwrap().num_rows(), 2000);
    std::fs::write(&paths[1], b"not a las file").unwrap();
    assert!(load_via_csv(&paths).is_err());
    paths.remove(1);
    assert_eq!(load_via_csv(&paths).unwrap().num_rows(), 1500);
}
