//! On-disk persistence of point tables — flat, tiled and ingest
//! checkpoints alike — as per-column binary dumps.
//!
//! §3.2 of the paper: the loader "generates a new file that is the binary
//! dump of a C-array containing the values of the property for all
//! points" — MonetDB's BAT storage is exactly one memory-mappable file per
//! column. A **dump** is a directory with one little-endian `<column>.bin`
//! per column plus a v2 manifest. A flat table is one dump; a tiled table
//! is a v3 root manifest (row ranges, SFC key ranges, zone maps) plus one
//! `tile_NNNNN/` dump per tile.
//!
//! **One writer, one reader.** `write_tile` alone writes column files and
//! a dump manifest, `save_staged` alone stages and commits a directory: a
//! flat save is one `write_tile` over every row, a tiled save one per tile
//! plus the root manifest. `read_layout` reads any manifest as a tile
//! layout (a flat one is one tile at the root), `read_manifest` verifies
//! one dump's manifest and row count, and `read_columns` reads a set of its
//! columns, each file checked for size and CRC as it lands in the column's
//! own buffer (one copy): [`PointCloud::open_dir`] asks for every
//! column, a lazy tile fault of [`crate::segment::TiledCloud`]
//! for the columns the tile lacks, reading the tile's manifest on its first
//! fault only. Those are these three calls, so they accept and reject the
//! same directories, and a tiled query checks each column file on first
//! touch.
//!
//! **Durability.** Saves are atomic: the tree is written to a staging
//! directory next to the target and committed with one `rename`, so a
//! crash leaves the old state or the new one — never a hybrid, never a
//! directory `open_dir` accepts by accident. Every column file has a CRC-32
//! in its dump manifest and every manifest (v2, v3) a trailing CRC-32 over
//! its own bytes, so any ≤32-bit burst in any file is detected. Version-1
//! dumps (no checksums) still open, with size checks only.
//!
//! **Fault sites**, the same for both layouts: `WriteColumn` (target =
//! column name) and `WriteManifest` before each file is written, `Commit`
//! before the commit rename, between its two renames (`"swap"`) and before
//! the parent fsync (`"fsync"`); reads pass `ReadManifest` and `ReadColumn`.

use std::io::Write;
use std::ops::{Range, RangeInclusive};
use std::path::{Path, PathBuf};
use std::str::FromStr;

use lidardb_las::{point_schema, COLUMN_NAMES};
use lidardb_storage::{Column, Field, TileMeta, TileSet, ZoneEntry};

use crate::crc::crc32;
use crate::error::CoreError;
use crate::fault::{FaultInjector, FaultKind, FaultStage};
use crate::metrics::Stage;
use crate::pointcloud::PointCloud;
use crate::table::ColumnSet;
use crate::wal::Durability;

/// Manifest file name.
const MANIFEST: &str = "MANIFEST.lidardb";

/// Header line of a dump (flat v1/v2) manifest.
const FLAT_HEADER: &str = "lidardb flat table";

/// Current dump manifest version (v2 = per-column checksums).
const VERSION: u32 = 2;

/// Header line of a tiled (v3) root manifest.
const TILED_HEADER: &str = "lidardb tiled table";

/// Tiled root-manifest format version.
const TILED_VERSION: u32 = 3;

fn io_err(e: std::io::Error) -> CoreError {
    CoreError::Las(lidardb_las::LasError::Io(e))
}

/// Write-path I/O mapping: device exhaustion (`ENOSPC`/`EIO`) becomes the
/// typed [`CoreError::StorageExhausted`] so the owning table can enter
/// read-only degraded mode; anything else stays a plain I/O error.
fn wio_err(e: std::io::Error) -> CoreError {
    if crate::error::is_storage_exhausted_io(&e) {
        CoreError::StorageExhausted(format!("dump write: {e}"))
    } else {
        io_err(e)
    }
}

fn corrupt(msg: impl Into<String>) -> CoreError {
    CoreError::Corrupt(msg.into())
}

/// A manifest scanned into `key value` lines, its header line checked:
/// the one line scanner behind the dump and root-manifest parsers.
struct Scan<'a> {
    text: &'a str,
    lines: Vec<(&'a str, &'a str)>,
}

impl<'a> Scan<'a> {
    fn new(text: &'a str, header: &str, what: &str) -> Result<Scan<'a>, CoreError> {
        let mut lines = text.lines();
        if lines.next() != Some(header) {
            return Err(corrupt(format!("{what}: bad header line")));
        }
        let lines = lines.filter_map(|line| line.split_once(' ')).collect();
        Ok(Scan { text, lines })
    }

    /// The last `key` line's value, parsed; `None` if missing or malformed.
    fn get<T: FromStr>(&self, key: &str) -> Option<T> {
        let (_, v) = self.lines.iter().rev().find(|(k, _)| *k == key)?;
        v.trim().parse().ok()
    }

    /// The version (one of `supported`) and the row count, once the
    /// column list matched the schema.
    fn head(&self, what: &str, supported: RangeInclusive<u32>) -> Result<(u32, usize), CoreError> {
        let version = match self.get("version") {
            Some(v) if supported.contains(&v) => v,
            Some(v) => return Err(corrupt(format!("{what}: unsupported version {v}"))),
            None => return Err(corrupt(format!("{what}: missing version"))),
        };
        let rows = self
            .get("rows")
            .ok_or_else(|| corrupt(format!("{what}: missing row count")))?;
        if self.get::<String>("columns") != Some(COLUMN_NAMES.join(",")) {
            return Err(corrupt(format!("{what}: column list mismatch")));
        }
        Ok((version, rows))
    }

    /// Verify the trailing self-CRC, which covers every byte before the
    /// first `manifest_crc` line.
    fn check_crc(&self, what: &str) -> Result<(), CoreError> {
        let declared: u32 = self
            .get("manifest_crc")
            .ok_or_else(|| corrupt(format!("{what}: missing manifest_crc")))?;
        // invariant: `get` only found a value on a line starting
        // "manifest_crc ", so find() cannot miss it.
        let end = self
            .text
            .find("manifest_crc ")
            .expect("manifest_crc line scanned");
        if crc32(&self.text.as_bytes()[..end]) != declared {
            return Err(corrupt(format!("{what}: self-checksum mismatch")));
        }
        Ok(())
    }
}

/// Append the trailing self-CRC every rendered manifest ends with.
fn with_crc(mut text: String) -> String {
    text.push_str(&format!("manifest_crc {}\n", crc32(text.as_bytes())));
    text
}

/// A parsed dump manifest (v1/v2): what a column read checks its file
/// against.
pub(crate) struct Manifest {
    rows: usize,
    /// CRC-32 of each column's dump bytes, in schema order; `None` for v1
    /// manifests.
    checksums: Option<Vec<u32>>,
}

impl Manifest {
    /// Render the v2 manifest text, including its trailing self-CRC.
    fn render(rows: usize, checksums: &[(String, u32)]) -> String {
        let mut text = format!(
            "{FLAT_HEADER}\nversion {VERSION}\nrows {rows}\ncolumns {}\n",
            COLUMN_NAMES.join(",")
        );
        for (name, crc) in checksums {
            text.push_str(&format!("checksum {name} {crc}\n"));
        }
        with_crc(text)
    }

    /// Parse and validate manifest text (header, version, row count,
    /// column list; for v2 also the self-CRC and a checksum for every
    /// column).
    fn parse(text: &str) -> Result<Manifest, CoreError> {
        let s = Scan::new(text, FLAT_HEADER, "manifest")?;
        let (version, rows) = s.head("manifest", 1..=VERSION)?;
        if version == 1 {
            return Ok(Manifest {
                rows,
                checksums: None,
            });
        }
        s.check_crc("manifest")?;
        // The last line naming a column wins; other names are ignored.
        let mut checksums: Vec<Option<u32>> = vec![None; COLUMN_NAMES.len()];
        for &(_, v) in s.lines.iter().filter(|(key, _)| *key == "checksum") {
            let mut it = v.split_whitespace();
            match (it.next(), it.next().and_then(|c| c.parse().ok()), it.next()) {
                (Some(name), Some(crc), None) => {
                    if let Some(i) = COLUMN_NAMES.iter().position(|n| *n == name) {
                        checksums[i] = Some(crc);
                    }
                }
                _ => return Err(corrupt(format!("manifest: bad checksum line {v:?}"))),
            }
        }
        let checksums = checksums.iter().zip(COLUMN_NAMES).map(|(crc, name)| {
            crc.ok_or_else(|| corrupt(format!("manifest: missing checksum for {name}")))
        });
        Ok(Manifest {
            rows,
            checksums: Some(checksums.collect::<Result<_, _>>()?),
        })
    }
}

/// The tile layout of a saved table. A tiled (v3) directory declares it in
/// its root manifest and keeps tile `i` in `tile_{i:05}/`; a flat (v1/v2)
/// directory is one tile living at the root, with no zone maps.
pub(crate) struct Layout {
    /// Total rows across every tile.
    pub(crate) rows: usize,
    /// Space-filling curve the rows are clustered by (`hilbert`/`morton`,
    /// `none` for a flat table).
    pub(crate) curve: String,
    /// Quantizer resolution (bits per axis) of the SFC keys, 0 when flat.
    pub(crate) bits: u32,
    /// Row ranges, key ranges and zone maps, in row order.
    pub(crate) tiles: TileSet,
    /// Whether the one tile is the table directory itself.
    pub(crate) flat: bool,
}

impl Layout {
    /// A flat table of `rows` rows: one unpruneable tile at the root.
    pub(crate) fn flat(rows: usize) -> Layout {
        let tile = TileMeta {
            id: 0,
            row_start: 0,
            row_end: rows,
            key_lo: 0,
            key_hi: u64::MAX,
            zones: Vec::new(),
        };
        Layout {
            rows,
            curve: "none".to_string(),
            bits: 0,
            tiles: TileSet { tiles: vec![tile] },
            flat: true,
        }
    }

    /// The dump directory of tile `id` of the table at `dir`.
    pub(crate) fn tile_dir(&self, dir: &Path, id: usize) -> PathBuf {
        if self.flat {
            dir.to_path_buf()
        } else {
            dir.join(format!("tile_{id:05}"))
        }
    }

    /// Render the v3 root-manifest text, including its trailing self-CRC.
    /// Zone bounds are `f64` shortest-round-trip decimals (`Display`), so
    /// parsing restores bit-identical pruning behaviour.
    fn render(&self) -> String {
        let mut text = format!(
            "{TILED_HEADER}\nversion {TILED_VERSION}\nrows {}\ncolumns {}\ncurve {}\nbits {}\ntiles {}\n",
            self.rows,
            COLUMN_NAMES.join(","),
            self.curve,
            self.bits,
            self.tiles.len(),
        );
        for t in &self.tiles.tiles {
            text.push_str(&format!(
                "tile {} {} {} {} {}\n",
                t.id, t.row_start, t.row_end, t.key_lo, t.key_hi
            ));
        }
        for t in &self.tiles.tiles {
            for z in &t.zones {
                text.push_str(&format!("zone {} {} {} {}\n", t.id, z.column, z.min, z.max));
            }
        }
        with_crc(text)
    }

    /// Parse and validate v3 root-manifest text: header, version, self-CRC,
    /// column list, and the tile layout (contiguous row ranges starting at
    /// 0 and ending at `rows`, ids in order, ordered key ranges).
    fn parse(text: &str) -> Result<Layout, CoreError> {
        const WHAT: &str = "tiled manifest";
        let s = Scan::new(text, TILED_HEADER, WHAT)?;
        let (_, rows) = s.head(WHAT, TILED_VERSION..=TILED_VERSION)?;
        s.check_crc(WHAT)?;
        let curve = s
            .get("curve")
            .ok_or_else(|| corrupt(format!("{WHAT}: missing curve")))?;
        let bits = s
            .get("bits")
            .ok_or_else(|| corrupt(format!("{WHAT}: missing bits")))?;
        let mut tiles: Vec<TileMeta> = Vec::new();
        for &(key, v) in &s.lines {
            let f: Vec<&str> = v.split_whitespace().collect();
            let parsed = match (key, f.as_slice()) {
                ("tile", [id, rs, re, klo, khi]) => (|| {
                    tiles.push(TileMeta {
                        id: id.parse().ok()?,
                        row_start: rs.parse().ok()?,
                        row_end: re.parse().ok()?,
                        key_lo: klo.parse().ok()?,
                        key_hi: khi.parse().ok()?,
                        zones: Vec::new(),
                    });
                    Some(())
                })(),
                ("zone", [tid, col, lo, hi]) => (|| {
                    let entry = ZoneEntry {
                        column: col.to_string(),
                        min: lo.parse().ok()?,
                        max: hi.parse().ok()?,
                    };
                    tiles.get_mut(tid.parse::<usize>().ok()?)?.zones.push(entry);
                    Some(())
                })(),
                ("tile" | "zone", _) => None,
                _ => Some(()),
            };
            if parsed.is_none() {
                return Err(corrupt(format!("{WHAT}: bad {key} line {v:?}")));
            }
        }
        if s.get::<usize>("tiles") != Some(tiles.len()) {
            return Err(corrupt(format!("{WHAT}: tile count mismatch")));
        }
        if tiles.is_empty() {
            return Err(corrupt(format!("{WHAT}: no tiles")));
        }
        let mut next_row = 0usize;
        for (i, t) in tiles.iter().enumerate() {
            if t.id != i {
                return Err(corrupt(format!("{WHAT}: tile id {} out of order", t.id)));
            }
            if t.row_start != next_row || t.row_end < t.row_start {
                return Err(corrupt(format!("{WHAT}: tile {i} rows not contiguous")));
            }
            if t.key_lo > t.key_hi {
                return Err(corrupt(format!("{WHAT}: tile {i} key range inverted")));
            }
            next_row = t.row_end;
        }
        if next_row != rows {
            return Err(corrupt(format!(
                "{WHAT}: tiles cover {next_row} rows, manifest declares {rows}"
            )));
        }
        Ok(Layout {
            rows,
            curve,
            bits,
            tiles: TileSet { tiles },
            flat: false,
        })
    }
}

/// Read one file through its fault site: `IoError` fails the read, the
/// byte-level kinds damage the bytes as if they had rotted on disk.
fn read_file(
    path: &Path,
    fi: Option<&FaultInjector>,
    stage: FaultStage,
    target: &str,
) -> Result<Vec<u8>, CoreError> {
    let mut bytes = std::fs::read(path).map_err(io_err)?;
    if let Some(kind) = fi.and_then(|fi| fi.fire(stage, target)) {
        if kind == FaultKind::IoError {
            return Err(io_err(kind.to_io_error()));
        }
        kind.corrupt(&mut bytes);
    }
    Ok(bytes)
}

/// Read the manifest text of a directory.
fn read_manifest_text(dir: &Path, fi: Option<&FaultInjector>) -> Result<String, CoreError> {
    let bytes = read_file(&dir.join(MANIFEST), fi, FaultStage::ReadManifest, MANIFEST)?;
    String::from_utf8(bytes).map_err(|_| corrupt("manifest: not UTF-8"))
}

/// The one layout read: the manifest of a table directory, tiled root or
/// flat dump, as a tile layout.
pub(crate) fn read_layout(dir: &Path, fi: Option<&FaultInjector>) -> Result<Layout, CoreError> {
    let text = read_manifest_text(dir, fi)?;
    if text.starts_with(TILED_HEADER) {
        Layout::parse(&text)
    } else {
        Manifest::parse(&text).map(|m| Layout::flat(m.rows))
    }
}

/// The one manifest read of a dump: the manifest of `tile_dir`, parsed
/// and verified, and its row count checked against the layout's
/// `expected_rows`.
pub(crate) fn read_manifest(
    tile_dir: &Path,
    expected_rows: usize,
    fi: Option<&FaultInjector>,
) -> Result<Manifest, CoreError> {
    let manifest = Manifest::parse(&read_manifest_text(tile_dir, fi)?)?;
    if manifest.rows != expected_rows {
        return Err(corrupt(format!(
            "{} declares {} rows, layout expects {expected_rows}",
            tile_dir.display(),
            manifest.rows
        )));
    }
    Ok(manifest)
}

/// The one column read of a dump: each column file in `columns`, its size
/// and CRC checked against `manifest`, decoded in schema order with its
/// field.
fn read_columns(
    tile_dir: &Path,
    manifest: &Manifest,
    columns: ColumnSet,
    fi: Option<&FaultInjector>,
) -> Result<Vec<(Field, Column)>, CoreError> {
    let schema = point_schema();
    columns
        .indices()
        .map(|i| {
            let field = &schema.fields()[i];
            Ok((
                field.clone(),
                read_column(tile_dir, manifest, i, field, fi)?,
            ))
        })
        .collect()
}

/// Read column `i` of the schema, `field`, from its dump file in `dir`
/// straight into the column's buffer, checking the bytes read — their
/// size, and their CRC for v2 manifests — before they become values. A
/// `ReadColumn` fault damages those bytes as if they had rotted on disk.
fn read_column(
    dir: &Path,
    manifest: &Manifest,
    i: usize,
    field: &Field,
    fi: Option<&FaultInjector>,
) -> Result<Column, CoreError> {
    use std::io::Read;
    let path = dir.join(format!("{}.bin", field.name));
    // `rows` is an untrusted count parsed from the manifest text: multiply
    // checked so a forged row count (e.g. u64::MAX in a v1 manifest, which
    // carries no checksums) is rejected instead of overflowing, and the
    // file size is checked before a buffer of that size is allocated.
    let expected = manifest
        .rows
        .checked_mul(field.ptype.size())
        .ok_or_else(|| corrupt("manifest: row count overflows byte size"))?;
    let wrong_size = |found: u64| {
        corrupt(format!(
            "column file {} has {found} bytes, manifest expects {expected}",
            path.display()
        ))
    };
    let mut file = std::fs::File::open(&path).map_err(io_err)?;
    let found = file.metadata().map_err(io_err)?.len();
    if found != expected as u64 {
        return Err(wrong_size(found));
    }
    Column::from_le_with(field.ptype, manifest.rows, |bytes| {
        file.read_exact(bytes).map_err(io_err)?;
        if let Some(kind) = fi.and_then(|fi| fi.fire(FaultStage::ReadColumn, &field.name)) {
            if kind == FaultKind::IoError {
                return Err(io_err(kind.to_io_error()));
            }
            let mut damaged = bytes.to_vec();
            kind.corrupt(&mut damaged);
            if damaged.len() != expected {
                return Err(wrong_size(damaged.len() as u64));
            }
            bytes.copy_from_slice(&damaged);
        }
        if let Some(sums) = &manifest.checksums {
            let (declared, actual) = (sums[i], crc32(bytes));
            if actual != declared {
                return Err(corrupt(format!(
                    "column file {} checksum mismatch: manifest {declared}, data {actual}",
                    path.display()
                )));
            }
        }
        Ok(())
    })
}

/// Read and verify every tile of the table at `dir` and join their
/// columns (all of them, in schema order) in row order. Each column is
/// sized once for the decoded rows of all tiles, so none grows by
/// doubling; a tile's column is dropped once copied, and a lone tile is
/// taken as it is. Returns the layout and the columns.
fn read_all(
    dir: &Path,
    fi: Option<&FaultInjector>,
) -> Result<(Layout, Vec<(Field, Column)>), CoreError> {
    let layout = read_layout(dir, fi)?;
    let mut tiles = Vec::with_capacity(layout.tiles.tiles.len());
    for t in &layout.tiles.tiles {
        let tile_dir = layout.tile_dir(dir, t.id);
        let manifest = read_manifest(&tile_dir, t.rows(), fi)?;
        tiles.push(read_columns(&tile_dir, &manifest, ColumnSet::ALL, fi)?.into_iter());
    }
    let rows: usize = tiles
        .iter()
        .filter_map(|t| t.as_slice().first())
        .map(|(_, c)| c.len())
        .sum();
    let Some((first, rest)) = tiles.split_first_mut() else {
        return Ok((layout, Vec::new()));
    };
    let columns = first
        .map(|(field, mut col)| {
            col.reserve_exact(rows.saturating_sub(col.len()));
            for tile in rest.iter_mut() {
                let (_, more) = tile.next().expect("every tile holds every column");
                lidardb_storage::for_each_variant!(&more, v => col.extend_typed(v))?;
            }
            Ok((field, col))
        })
        .collect::<Result<_, CoreError>>()?;
    Ok((layout, columns))
}

/// One disk read under a `PersistLoad` span and stage sample — once per
/// `open_dir`, once per tile fault, of a tile that was not resident or of
/// columns added to a resident one (`benchmark/` reads tile-load time from
/// this stage). `load` returns its value and the rows it read.
fn timed_load<T>(
    fi: Option<&FaultInjector>,
    load: impl FnOnce() -> Result<(T, usize), CoreError>,
) -> Result<T, CoreError> {
    let mut stage = crate::trace::stage(Stage::PersistLoad);
    if fi.is_some() {
        stage.add_flags(crate::trace::FLAG_FAULT);
    }
    let (value, n) = load()?;
    stage.set_rows(n as u64, n as u64);
    stage.finish(n);
    Ok(value)
}

/// Read and verify `columns` of tile `id` of the table at `dir`, decoded,
/// in schema order with their fields. `manifest` is the tile's verified
/// manifest: read (and kept there) on the tile's first fault, so a later
/// fault of the same tile reads only its column files.
pub(crate) fn read_tile_columns(
    dir: &Path,
    layout: &Layout,
    id: usize,
    manifest: &mut Option<Manifest>,
    columns: ColumnSet,
    fi: Option<&FaultInjector>,
) -> Result<Vec<(Field, Column)>, CoreError> {
    let rows = layout.tiles.tiles[id].rows();
    let tile_dir = layout.tile_dir(dir, id);
    timed_load(fi, || {
        let manifest = match manifest {
            Some(m) => m,
            None => manifest.insert(read_manifest(&tile_dir, rows, fi)?),
        };
        Ok((read_columns(&tile_dir, manifest, columns, fi)?, rows))
    })
}

/// A staging directory that removes itself on drop unless committed.
struct Staging {
    path: PathBuf,
    committed: bool,
}

impl Staging {
    fn for_target(target: &Path) -> Result<Staging, CoreError> {
        let name = target
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| corrupt(format!("bad save path {}", target.display())))?;
        // Unique per process+cloud so concurrent saves to different
        // targets never collide; the leading dot keeps it out of globs.
        let staging = target.with_file_name(format!(".{name}.staging.{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&staging); // stale leftover from a crash
        std::fs::create_dir_all(&staging).map_err(io_err)?;
        Ok(Staging {
            path: staging,
            committed: false,
        })
    }

    /// Atomically move the staged state to `target`, replacing whatever
    /// is there. The new state appears at `target` in one rename.
    fn commit(mut self, target: &Path, fi: Option<&FaultInjector>) -> Result<(), CoreError> {
        // `rename` cannot replace a non-empty directory, so an existing
        // target is moved aside first and dropped after the swap. The
        // crash window between the two renames leaves *no* directory at
        // the target — never a partial one; [`recover_stale_dirs`] rolls
        // the `.replaced` copy back on the next open.
        let old = self.path.with_extension("replaced");
        let _ = std::fs::remove_dir_all(&old);
        let had_old = match std::fs::rename(target, &old) {
            Ok(()) => true,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(e) => return Err(io_err(e)),
        };
        if fi
            .and_then(|fi| fi.fire(FaultStage::Commit, "swap"))
            .is_some()
        {
            // Simulated kill inside the two-rename window: the old state
            // sits at `.replaced`, the staged state never reached the
            // target. A real crash leaves both directories on disk, so
            // the abandoned staging dir must survive Drop too.
            self.committed = true;
            return Err(corrupt("injected crash between commit renames"));
        }
        if let Err(e) = std::fs::rename(&self.path, target) {
            // Roll the old state back so a failed commit is a no-op.
            if had_old {
                let _ = std::fs::rename(&old, target);
            }
            return Err(io_err(e));
        }
        self.committed = true;
        if had_old {
            let _ = std::fs::remove_dir_all(&old);
        }
        Ok(())
    }
}

impl Drop for Staging {
    fn drop(&mut self) {
        if !self.committed {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// fsync a *directory*, making the renames/creates inside it durable.
/// A `rename` only becomes crash-safe once its parent directory entry is
/// flushed — syncing the files alone is not enough.
fn sync_dir(dir: &Path, durability: Durability) -> Result<(), CoreError> {
    if durability == Durability::None {
        return Ok(());
    }
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(wio_err)
}

/// Write and fsync one file of a staged tree through its fault site. The
/// caller checksummed `bytes` first, so an injected byte-level fault models
/// bits rotting after the CRC was taken and stays detectable.
fn write_file(
    path: &Path,
    mut bytes: Vec<u8>,
    fi: Option<&FaultInjector>,
    stage: FaultStage,
    target: &str,
    durability: Durability,
) -> Result<(), CoreError> {
    if let Some(kind) = fi.and_then(|fi| fi.fire(stage, target)) {
        match kind {
            FaultKind::IoError => return Err(io_err(kind.to_io_error())),
            FaultKind::Crash => return Err(corrupt(format!("injected crash writing {target}"))),
            _ => kind.corrupt(&mut bytes),
        }
    }
    let mut f = std::fs::File::create(path).map_err(wio_err)?;
    f.write_all(&bytes).map_err(wio_err)?;
    // Regression: the dump used to leave the page cache unflushed, so a
    // power cut after a "successful" save could lose or tear bytes the
    // checksums were computed over.
    if durability != Durability::None {
        f.sync_all().map_err(wio_err)?;
    }
    Ok(())
}

/// The one dump writer: the column files of `rows`, each serialised from
/// that row range only (across a streaming cloud's base and tail), then the v2 manifest over their CRCs, then the
/// directory entry — all fsynced.
fn write_tile(
    dir: &Path,
    pc: &PointCloud,
    rows: Range<usize>,
    fi: Option<&FaultInjector>,
    durability: Durability,
) -> Result<(), CoreError> {
    use FaultStage::{WriteColumn, WriteManifest};
    std::fs::create_dir_all(dir).map_err(io_err)?;
    let schema = point_schema();
    let mut checksums = Vec::with_capacity(schema.width());
    for field in schema.fields() {
        let bytes = pc.column_dump(&field.name, rows.clone())?;
        checksums.push((field.name.clone(), crc32(&bytes)));
        let path = dir.join(format!("{}.bin", field.name));
        write_file(&path, bytes, fi, WriteColumn, &field.name, durability)?;
    }
    let manifest = Manifest::render(rows.len(), &checksums).into_bytes();
    let path = dir.join(MANIFEST);
    write_file(&path, manifest, fi, WriteManifest, MANIFEST, durability)?;
    sync_dir(dir, durability)
}

/// The one staged commit: `write` fills a fresh staging directory next to
/// `target` (and must leave it durable), which is then committed with
/// [`Staging::commit`] and made durable by fsyncing the parent — under one
/// `PersistSave` span and stage sample.
fn save_staged(
    target: &Path,
    rows: usize,
    fi: Option<&FaultInjector>,
    durability: Durability,
    write: impl FnOnce(&Path) -> Result<(), CoreError>,
) -> Result<(), CoreError> {
    let mut stage = crate::trace::stage(Stage::PersistSave);
    stage.set_rows(rows as u64, rows as u64);
    if fi.is_some() {
        stage.add_flags(crate::trace::FLAG_FAULT);
    }
    let parent = target.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(parent) = parent {
        std::fs::create_dir_all(parent).map_err(io_err)?;
    }
    let staging = Staging::for_target(target)?;
    write(&staging.path)?;
    if fi
        .and_then(|fi| fi.fire(FaultStage::Commit, MANIFEST))
        .is_some()
    {
        // Simulated kill right before the commit rename: the staging
        // directory is abandoned (cleaned by Drop), the target keeps
        // its previous state.
        return Err(corrupt("injected crash before commit"));
    }
    staging.commit(target, fi)?;
    if let Some(kind) = fi.and_then(|fi| fi.fire(FaultStage::Commit, "fsync")) {
        return Err(match kind {
            FaultKind::IoError => io_err(kind.to_io_error()),
            other => corrupt(format!("injected {other:?} before parent-dir fsync")),
        });
    }
    // And the commit rename itself must reach the disk: fsync the parent
    // directory that holds the renamed entry.
    if let Some(parent) = parent {
        sync_dir(parent, durability)?;
    }
    stage.finish(rows);
    Ok(())
}

/// Save `pc` at `dir` in `layout`, atomically and durably: one dump per
/// tile — a flat layout's one tile is the directory itself — plus, for a
/// tiled layout, the v3 root manifest. The rows must already be in tile
/// order.
pub(crate) fn save(
    pc: &PointCloud,
    dir: &Path,
    layout: &Layout,
    fi: Option<&FaultInjector>,
    durability: Durability,
) -> Result<(), CoreError> {
    let n = pc.num_points();
    if layout.rows != n || layout.tiles.total_rows() != n {
        return Err(corrupt("save: tile layout does not cover the table"));
    }
    use FaultStage::WriteManifest;
    save_staged(dir, n, fi, durability, |staging| {
        for t in &layout.tiles.tiles {
            let rows = t.row_start..t.row_end;
            write_tile(&layout.tile_dir(staging, t.id), pc, rows, fi, durability)?;
        }
        if layout.flat {
            return Ok(());
        }
        let (path, root) = (staging.join(MANIFEST), layout.render().into_bytes());
        write_file(&path, root, fi, WriteManifest, MANIFEST, durability)?;
        sync_dir(staging, durability)
    })
}

impl PointCloud {
    /// Write the table as one binary dump per column plus a checksummed
    /// manifest, atomically (staging directory + rename) and **durably**:
    /// every dump, the manifest and the parent directory entry are
    /// fsynced before the call returns.
    pub fn save_dir(&self, dir: impl AsRef<Path>) -> Result<(), CoreError> {
        let layout = Layout::flat(self.num_points());
        save(self, dir.as_ref(), &layout, None, Durability::Always)
    }

    /// Load a table previously written by [`PointCloud::save_dir`], or
    /// every tile of one written by [`PointCloud::save_tiled`] /
    /// [`PointCloud::seal_to_tiles`] into one flat table in tile order.
    /// Sweeps commit debris first ([`recover_stale_dirs`]) and verifies
    /// every checksum.
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Self, CoreError> {
        Self::open_dir_with_faults(dir, None)
    }

    /// [`PointCloud::open_dir`] with fault-injection hooks.
    pub(crate) fn open_dir_with_faults(
        dir: impl AsRef<Path>,
        fi: Option<&FaultInjector>,
    ) -> Result<Self, CoreError> {
        let dir = dir.as_ref();
        timed_load(fi, || {
            recover_stale_dirs(dir)?;
            let (layout, columns) = read_all(dir, fi)?;
            let pc = PointCloud::tile(layout.rows, None, columns)?;
            pc.publish_size();
            Ok((pc, layout.rows))
        })
    }
}

/// Clean up the debris a crash inside `Staging::commit` can leave next
/// to `target`, returning a description of each action taken.
///
/// Two leftover shapes exist:
///
/// * `.{name}.staging.{pid}` — a save died before (or during) its commit
///   rename. The target still holds the previous state (or the `.replaced`
///   copy does); the staging dir is incomplete debris and is removed.
/// * `.{name}.staging.replaced` — the crash landed *between* the two
///   commit renames: the old state was moved aside but the new state never
///   reached the target. If the target is missing and the copy still has
///   a valid manifest, it is rolled back to the target; if the target
///   exists (the swap completed, only the cleanup was lost), the copy is
///   removed.
///
/// Called automatically by [`PointCloud::open_dir`]; idempotent.
pub fn recover_stale_dirs(target: impl AsRef<Path>) -> Result<Vec<String>, CoreError> {
    let target = target.as_ref();
    let Some(name) = target.file_name().and_then(|n| n.to_str()) else {
        return Ok(Vec::new());
    };
    let parent = match target.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let entries = match std::fs::read_dir(parent) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(e)),
    };
    let prefix = format!(".{name}.staging.");
    let mut actions = Vec::new();
    for entry in entries.filter_map(|e| e.ok()) {
        let fname = entry.file_name().to_string_lossy().into_owned();
        if !fname.starts_with(&prefix) {
            continue;
        }
        let path = entry.path();
        if fname.ends_with(".replaced") && !target.exists() && read_layout(&path, None).is_ok() {
            std::fs::rename(&path, target).map_err(io_err)?;
            sync_dir(parent, Durability::Always)?;
            actions.push(format!("rolled back {fname}"));
        } else {
            std::fs::remove_dir_all(&path).map_err(io_err)?;
            actions.push(format!("removed {fname}"));
        }
    }
    Ok(actions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidardb_las::PointRecord;

    fn tdir(name: &str) -> lidardb_test_support::ScratchDir {
        lidardb_test_support::ScratchDir::vacant(&format!("persist_{name}"))
    }

    fn cloud(n: usize) -> PointCloud {
        let mut pc = PointCloud::new();
        let recs: Vec<PointRecord> = (0..n)
            .map(|i| PointRecord {
                x: i as f64 * 0.5,
                y: 1000.0 - i as f64,
                z: (i % 40) as f64,
                classification: (i % 10) as u8,
                intensity: i as u16,
                gps_time: 1e5 + i as f64 * 1e-3,
                wave_offset: i as u64 * 7,
                ..Default::default()
            })
            .collect();
        pc.append_records(&recs).unwrap();
        pc
    }

    /// A cloud of `n` rows and the layout to save it in: flat, or
    /// SFC-sorted into about four tiles.
    fn planned(n: usize, tiled: bool) -> (PointCloud, Layout) {
        let mut pc = cloud(n);
        let layout = if tiled {
            let opts = crate::segment::TileOptions {
                target_rows: n.div_ceil(4),
                ..Default::default()
            };
            crate::segment::sort_and_plan(&mut pc, &opts).unwrap()
        } else {
            Layout::flat(n)
        };
        (pc, layout)
    }

    /// Save a planned cloud durably with `fi` armed.
    fn save_with(
        (pc, layout): &(PointCloud, Layout),
        target: &Path,
        fi: Option<&FaultInjector>,
    ) -> Result<(), CoreError> {
        save(pc, target, layout, fi, Durability::Always)
    }

    #[test]
    fn save_open_roundtrip_bit_exact() {
        let dir = tdir("roundtrip");
        let pc = cloud(5000);
        pc.save_dir(&dir).unwrap();
        let back = PointCloud::open_dir(&dir).unwrap();
        assert_eq!(back.num_points(), 5000);
        for name in lidardb_las::COLUMN_NAMES {
            assert_eq!(
                pc.column(name).unwrap(),
                back.column(name).unwrap(),
                "column {name}"
            );
        }
        // Queries work immediately (imprints rebuild lazily).
        let sel = back
            .select_query_with(
                None,
                &[crate::query::AttrRange::new("classification", 3.0, 3.0)],
                Default::default(),
                crate::Parallelism::default(),
            )
            .unwrap();
        assert_eq!(sel.rows.len(), 500);
    }

    #[test]
    fn save_is_atomic_replace() {
        let dir = tdir("replace");
        cloud(100).save_dir(&dir).unwrap();
        cloud(250).save_dir(&dir).unwrap();
        assert_eq!(PointCloud::open_dir(&dir).unwrap().num_points(), 250);
        // No staging or backup residue next to the target (other tests
        // stage their own directories in the same parent concurrently).
        let parent = dir.parent().unwrap();
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        let residue: Vec<_> = std::fs::read_dir(parent)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(&name) && (n.contains("staging") || n.contains("replaced")))
            .collect();
        assert!(residue.is_empty(), "residue: {residue:?}");
    }

    #[test]
    fn truncated_column_file_rejected() {
        let dir = tdir("trunc");
        cloud(100).save_dir(&dir).unwrap();
        let victim = dir.join("z.bin");
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() - 8]).unwrap();
        assert!(PointCloud::open_dir(&dir).is_err());
    }

    #[test]
    fn bit_flip_in_column_detected_by_checksum() {
        let dir = tdir("bitflip");
        cloud(200).save_dir(&dir).unwrap();
        let victim = dir.join("gps_time.bin");
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[777] ^= 0x10; // same length → only the CRC can catch it
        std::fs::write(&victim, &bytes).unwrap();
        let err = PointCloud::open_dir(&dir).unwrap_err();
        assert!(
            matches!(&err, CoreError::Corrupt(m) if m.contains("checksum")),
            "{err}"
        );
    }

    #[test]
    fn tampered_manifest_rejected() {
        let dir = tdir("manifest");
        cloud(10).save_dir(&dir).unwrap();
        let m = dir.join(MANIFEST);
        let good = std::fs::read_to_string(&m).unwrap();
        // Unsupported version.
        std::fs::write(&m, "lidardb flat table\nversion 99\nrows 10\ncolumns x\n").unwrap();
        assert!(PointCloud::open_dir(&dir).is_err());
        // Single-character edit to the row count: caught by the
        // manifest's own CRC even though the syntax stays valid.
        let evil = good.replacen("rows 10", "rows 11", 1);
        assert_ne!(evil, good);
        std::fs::write(&m, evil).unwrap();
        let err = PointCloud::open_dir(&dir).unwrap_err();
        assert!(matches!(err, CoreError::Corrupt(_)), "{err}");
        // Missing manifest entirely.
        std::fs::remove_file(&m).unwrap();
        assert!(PointCloud::open_dir(&dir).is_err());
    }

    #[test]
    fn v1_directories_still_open() {
        let dir = tdir("v1compat");
        let pc = cloud(50);
        pc.save_dir(&dir).unwrap();
        // Rewrite the manifest as a version-1 build would have written it.
        let v1 = format!(
            "lidardb flat table\nversion 1\nrows 50\ncolumns {}\n",
            COLUMN_NAMES.join(",")
        );
        std::fs::write(dir.join(MANIFEST), v1).unwrap();
        let back = PointCloud::open_dir(&dir).unwrap();
        assert_eq!(back.num_points(), 50);
        assert_eq!(
            back.column("x").unwrap(),
            pc.column("x").unwrap(),
            "payload intact via v1 manifest"
        );
    }

    /// Regression: `read_column` computed `manifest.rows * ptype.size()`
    /// with an unchecked multiply. A forged row count in a v1 manifest
    /// (which carries no checksums, so the text parses cleanly) overflowed
    /// — debug panic, release wraparound that could make a wrong-sized
    /// column file pass the size check. The multiply is now checked.
    #[test]
    fn forged_manifest_row_count_rejected_without_overflow() {
        let dir = tdir("forged_rows");
        cloud(50).save_dir(&dir).unwrap();
        let forged = format!(
            "lidardb flat table\nversion 1\nrows {}\ncolumns {}\n",
            usize::MAX,
            COLUMN_NAMES.join(",")
        );
        std::fs::write(dir.join(MANIFEST), forged).unwrap();
        assert!(matches!(
            PointCloud::open_dir(&dir).unwrap_err(),
            CoreError::Corrupt(_)
        ));
    }

    /// Flat and tiled saves pass the same fault sites: a crash at any of
    /// them fails the save and leaves nothing `open_dir` accepts.
    #[test]
    fn crash_during_save_leaves_no_accepted_directory() {
        for tiled in [false, true] {
            let parent = tdir(&format!("crash_{tiled}"));
            std::fs::create_dir_all(&parent).unwrap();
            let target = parent.join("table");
            let planned40 = planned(40, tiled);
            for (stage, col) in [
                (FaultStage::WriteColumn, Some("x")),
                (FaultStage::WriteColumn, Some("gps_time")),
                (FaultStage::WriteManifest, None),
                (FaultStage::Commit, None),
            ] {
                let ctx = format!("tiled={tiled} {stage:?}");
                let fi = FaultInjector::new();
                fi.inject(stage, col, FaultKind::Crash);
                let err = save_with(&planned40, &target, Some(&fi)).unwrap_err();
                assert!(matches!(err, CoreError::Corrupt(_)), "{ctx}: {err}");
                assert_eq!(fi.fired().len(), 1, "{ctx}: the site fired");
                assert!(
                    PointCloud::open_dir(&target).is_err(),
                    "{ctx}: interrupted save must not yield an openable dir"
                );
            }
            // A good save over the crash debris succeeds and opens.
            save_with(&planned40, &target, None).unwrap();
            assert_eq!(PointCloud::open_dir(&target).unwrap().num_points(), 40);
            // Crash during an overwrite keeps the previous state intact.
            let fi = FaultInjector::new();
            fi.inject(FaultStage::Commit, None, FaultKind::Crash);
            assert!(save_with(&planned(99, tiled), &target, Some(&fi)).is_err());
            assert_eq!(
                PointCloud::open_dir(&target).unwrap().num_points(),
                40,
                "tiled={tiled}: old state survives an interrupted overwrite"
            );
        }
    }

    #[test]
    fn injected_write_corruption_is_self_detected() {
        // Pristine directory on disk, fault injected on the read path:
        // the checksum must flag the damaged bytes.
        let dir = tdir("readfault");
        cloud(60).save_dir(&dir).unwrap();
        let fi = FaultInjector::new();
        fi.inject(FaultStage::ReadColumn, Some("y"), FaultKind::BitFlip(42));
        let err = PointCloud::open_dir_with_faults(&dir, Some(&fi)).unwrap_err();
        assert!(
            matches!(&err, CoreError::Corrupt(m) if m.contains("checksum")),
            "{err}"
        );
        // Transient read error surfaces as a retryable I/O error.
        let fi = FaultInjector::new();
        fi.inject(FaultStage::ReadManifest, None, FaultKind::IoError);
        let err = PointCloud::open_dir_with_faults(&dir, Some(&fi)).unwrap_err();
        assert!(err.is_transient(), "{err}");
        // And with no faults armed the same directory opens fine.
        assert!(PointCloud::open_dir_with_faults(&dir, Some(&FaultInjector::new())).is_ok());
    }

    /// Regression for the crash window *between* the two commit renames:
    /// the old state sits at `.replaced`, nothing sits at the target, and
    /// the abandoned staging directory survives. The next `open_dir` must
    /// roll the old state back and sweep the debris — for either layout.
    #[test]
    fn crash_between_commit_renames_rolls_back_on_open() {
        for tiled in [false, true] {
            let parent = tdir(&format!("swapcrash_{tiled}"));
            std::fs::create_dir_all(&parent).unwrap();
            let target = parent.join("table");
            save_with(&planned(40, tiled), &target, None).unwrap();
            let fi = FaultInjector::new();
            fi.inject(FaultStage::Commit, Some("swap"), FaultKind::Crash);
            let err = save_with(&planned(99, tiled), &target, Some(&fi)).unwrap_err();
            assert!(matches!(err, CoreError::Corrupt(_)), "tiled={tiled}: {err}");
            assert!(
                !target.exists(),
                "tiled={tiled}: crash window leaves no target"
            );
            let leftovers: Vec<String> = std::fs::read_dir(&parent)
                .unwrap()
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect();
            assert!(
                leftovers.iter().any(|n| n.ends_with(".replaced")),
                "tiled={tiled}: old state parked at .replaced: {leftovers:?}"
            );
            assert!(
                leftovers
                    .iter()
                    .any(|n| n.contains(".staging.") && !n.ends_with(".replaced")),
                "tiled={tiled}: abandoned staging dir left behind: {leftovers:?}"
            );
            // Reopen: stale-dir recovery rolls the previous state back.
            let back = PointCloud::open_dir(&target).unwrap();
            assert_eq!(
                back.num_points(),
                40,
                "tiled={tiled}: pre-crash state restored"
            );
            let residue: Vec<String> = std::fs::read_dir(&parent)
                .unwrap()
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.contains(".staging."))
                .collect();
            assert!(
                residue.is_empty(),
                "tiled={tiled}: debris swept: {residue:?}"
            );
        }
    }

    /// Each leftover shape on its own: an orphaned staging dir is removed,
    /// and a `.replaced` dir next to a live target (swap completed, only
    /// the cleanup was lost) is removed rather than rolled back.
    #[test]
    fn stale_leftovers_are_swept_per_shape() {
        let parent = tdir("sweep");
        std::fs::create_dir_all(&parent).unwrap();
        let target = parent.join("table");
        cloud(30).save_dir(&target).unwrap();
        // Orphaned staging dir (crash before commit in another process).
        let orphan = parent.join(".table.staging.424242");
        std::fs::create_dir_all(&orphan).unwrap();
        std::fs::write(orphan.join("x.bin"), b"junk").unwrap();
        // Replaced dir while the target is alive.
        let replaced = parent.join(".table.staging.replaced");
        std::fs::create_dir_all(&replaced).unwrap();
        std::fs::write(replaced.join("debris"), b"junk").unwrap();
        let actions = recover_stale_dirs(&target).unwrap();
        assert_eq!(actions.len(), 2, "{actions:?}");
        assert!(!orphan.exists() && !replaced.exists());
        assert_eq!(PointCloud::open_dir(&target).unwrap().num_points(), 30);
        // A `.replaced` dir that does NOT hold a valid manifest is never
        // promoted to the target, even when the target is missing.
        std::fs::remove_dir_all(&target).unwrap();
        std::fs::create_dir_all(&replaced).unwrap();
        std::fs::write(replaced.join("MANIFEST.lidardb"), b"garbage").unwrap();
        let actions = recover_stale_dirs(&target).unwrap();
        assert_eq!(actions.len(), 1, "{actions:?}");
        assert!(!target.exists(), "garbage must not be resurrected");
        assert!(!replaced.exists());
    }

    /// The save path fsyncs dumps, manifests and parent dir; the fault hook
    /// at the parent-dir fsync site fires after the swap, so the new state
    /// is already at the target when the "crash" hits — for either layout.
    #[test]
    fn fsync_fault_fires_after_commit_swap() {
        for tiled in [false, true] {
            let parent = tdir(&format!("fsyncfault_{tiled}"));
            std::fs::create_dir_all(&parent).unwrap();
            let target = parent.join("table");
            let planned25 = planned(25, tiled);
            let fi = FaultInjector::new();
            fi.inject(FaultStage::Commit, Some("fsync"), FaultKind::Crash);
            let err = save_with(&planned25, &target, Some(&fi)).unwrap_err();
            assert!(matches!(err, CoreError::Corrupt(_)), "tiled={tiled}: {err}");
            assert_eq!(fi.fired().len(), 1);
            // The swap happened; only the directory-entry flush was lost.
            // The state is openable — the caller just must not treat the
            // save as acknowledged (it got an Err).
            assert_eq!(PointCloud::open_dir(&target).unwrap().num_points(), 25);
            // A transient fsync error surfaces as retryable I/O.
            let fi = FaultInjector::new();
            fi.inject(FaultStage::Commit, Some("fsync"), FaultKind::IoError);
            let err = save_with(&planned25, &target, Some(&fi)).unwrap_err();
            assert!(err.is_transient(), "tiled={tiled}: {err}");
            // `Durability::None` skips the fsyncs entirely but still saves.
            let none_target = parent.join("table_none");
            let (pc, layout) = &planned25;
            save(pc, &none_target, layout, None, Durability::None).unwrap();
            assert_eq!(PointCloud::open_dir(&none_target).unwrap().num_points(), 25);
        }
    }

    #[test]
    fn empty_cloud_roundtrips() {
        let dir = tdir("empty");
        PointCloud::new().save_dir(&dir).unwrap();
        let back = PointCloud::open_dir(&dir).unwrap();
        assert_eq!(back.num_points(), 0);
    }
}
