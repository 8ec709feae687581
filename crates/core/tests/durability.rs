//! Property test for the on-disk durability contract.
//!
//! The format guarantees that **any single-bit corruption of any file** in
//! a saved table directory — flat, or tiled (root manifest, tile manifests,
//! tile columns) — is either (a) detected by every reader, or (b) harmless:
//! the directory still opens to a table byte-identical to the original.
//! Because every byte of every column dump is covered by a CRC32 and every
//! manifest checks itself, in practice every flip lands in case (a); the
//! property is stated in its weaker, safe form so it stays true even if
//! slack bytes ever appear in the format. The readers — `open_dir`,
//! `validate_dir`, and a lazy `TiledCloud` loading every tile — must agree.

use proptest::prelude::*;

use lidardb_core::{persist::validate_dir, PointCloud, PointTable, TileOptions, TiledCloud};
use lidardb_las::{point_schema, PointRecord};

fn sample_cloud(n: usize) -> PointCloud {
    let recs: Vec<PointRecord> = (0..n)
        .map(|i| PointRecord {
            x: i as f64 * 0.25,
            y: (n - i) as f64,
            z: (i % 17) as f64,
            intensity: (i * 7 % 65_536) as u16,
            classification: (i % 11) as u8,
            return_number: (i % 5) as u8,
            gps_time: i as f64 * 0.001,
            ..Default::default()
        })
        .collect();
    let mut pc = PointCloud::new();
    pc.append_records(&recs).unwrap();
    pc
}

/// Every file under `dir`, recursively, in a stable order.
fn files_under(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(files_under(&path));
        } else {
            out.push(path);
        }
    }
    out.sort();
    out
}

/// The lazy reader: open the layout, then load every tile.
fn lazy_load_all(dir: &std::path::Path) -> Result<(), lidardb_core::CoreError> {
    let tc = TiledCloud::open(dir)?;
    for t in &tc.tiles().tiles {
        PointTable::Tiled(&tc).record(t.row_start)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    fn single_bit_corruption_is_detected_or_harmless(
        n in 1usize..200,
        tiled in any::<bool>(),
        file_sel in any::<u64>(),
        byte_sel in any::<u64>(),
        bit in 0u32..8,
        case in any::<u64>(),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "lidardb_durability_{}_{case:016x}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut original = sample_cloud(n);
        if tiled {
            // Sorts `original` into tile order, so it stays the reference.
            let opts = TileOptions { target_rows: n.div_ceil(3), ..Default::default() };
            original.save_tiled(&dir, &opts).unwrap();
        } else {
            original.save_dir(&dir).unwrap();
        }

        // Pick one file of the saved tree and flip one bit in it.
        let files = files_under(&dir);
        let victim = &files[(file_sel % files.len() as u64) as usize];
        let mut bytes = std::fs::read(victim).unwrap();
        prop_assume!(!bytes.is_empty());
        let pos = (byte_sel % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(victim, &bytes).unwrap();

        let validated = validate_dir(&dir);
        let lazy = lazy_load_all(&dir);
        match PointCloud::open_dir(&dir) {
            Err(_) => {
                // Detected. The other readers must agree.
                prop_assert!(
                    validated.is_err() && lazy.is_err(),
                    "open_dir rejected {} but validate_dir ({:?}) or the lazy load ({:?}) accepted it",
                    victim.display(),
                    validated,
                    lazy
                );
            }
            Ok(reopened) => {
                // Harmless: the table must be byte-identical per column.
                prop_assert!(validated.is_ok() && lazy.is_ok());
                prop_assert_eq!(reopened.num_points(), original.num_points());
                for field in point_schema().fields() {
                    prop_assert_eq!(
                        reopened.column(&field.name).unwrap().to_le_bytes(),
                        original.column(&field.name).unwrap().to_le_bytes(),
                        "column {} differs after an undetected flip",
                        field.name
                    );
                }
            }
        }

        let _ = std::fs::remove_dir_all(&dir);
    }
}
