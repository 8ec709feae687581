//! Crash-safe streaming ingestion: the checksummed write-ahead log.
//!
//! Atomic dumps ([`crate::persist`]) make *bulk* state durable, but every
//! point appended since the last `save_dir` lived only in memory. This
//! module closes that gap for the paper's live-navigation workload: each
//! `append_records`/`append_dumps` batch is framed, CRC-32-checksummed and
//! appended to a WAL *before* it touches the in-memory table, so a crash
//! loses at most the batches that were never acknowledged as durable.
//!
//! # Frame format (v02)
//!
//! ```text
//! header:  "LDBWAL02" | base_rows u64 | ledger_count u32
//!          | [token u64]*ledger_count | crc32(everything before)
//! frame:   payload_len u32 | crc32 u32 | seq u64 | end_rows u64
//!          | token u64 | payload
//! payload: rows u32 | column dumps, little-endian, in schema order
//! ```
//!
//! The frame CRC covers `seq ‖ end_rows ‖ token ‖ payload`. Every length
//! field is untrusted (PR 3 decoder discipline): `payload_len` is checked
//! against the bytes actually remaining in the file and a hard cap before
//! any allocation, `ledger_count` against [`LEDGER_CAP`] and the header
//! bytes present, `rows` against the derived per-column dump sizes, and
//! `end_rows` against the running row count — so a torn, truncated or
//! bit-flipped tail is detected and cleanly truncated at recovery, never
//! mis-replayed.
//!
//! # Idempotency ledger
//!
//! `token` (0 = none) is a client-chosen idempotency token for the batch:
//! the writer keeps a bounded ledger of recent tokens so a client that
//! retries an INSERT after a lost acknowledgement cannot double-insert.
//! Tokens ride in the frame header (replayed into the ledger during
//! recovery) and survive `seal()` through the header's ledger snapshot —
//! written when the log resets, since the frames that carried them are
//! folded into the dump and truncated away. Eviction is bounded
//! ([`LEDGER_CAP`]) but never drops a token whose covering frame is not
//! yet durable: an undurable batch is exactly the one a client may still
//! be retrying.
//!
//! # Group commit and visibility
//!
//! [`Durability`] picks when appended frames are fsynced: every batch
//! (`Always`), when a batch count/delay threshold is crossed
//! (`GroupCommit`), or never (`None`, benchmarks). The table's visibility
//! watermark (`PointCloud::visible_rows`) advances only when the covering
//! frames are durable, giving concurrent queries snapshot isolation with
//! no ghost rows: a row a reader can see is a row recovery will replay.
//!
//! # Idempotent replay
//!
//! `seal()` folds the WAL into a fresh atomic dump and then truncates the
//! log. A crash *between* those two steps leaves a dump that already
//! contains every logged row; frames carry their cumulative `end_rows`
//! exactly so replay can skip the prefix the dump already covers.

use std::collections::VecDeque;
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lidardb_las::point_schema;

use crate::crc::crc32;
use crate::error::{is_storage_exhausted_io, CoreError};
use crate::fault::{FaultInjector, FaultKind, FaultStage};

/// WAL header magic (8 bytes, versioned).
const MAGIC: &[u8; 8] = b"LDBWAL02";

/// Minimum header size (empty ledger): magic + base_rows + ledger_count
/// + crc. A header carrying `n` ledger tokens is `HEADER_LEN + 8n` bytes.
const HEADER_LEN: u64 = 8 + 8 + 4 + 4;

/// Frame header size: payload_len + crc + seq + end_rows + token.
const FRAME_HEADER_LEN: u64 = 4 + 4 + 8 + 8 + 8;

/// Hard cap on a single frame payload (64 MiB ≈ 800k points); a declared
/// length beyond it is rejected before any allocation.
const MAX_PAYLOAD: u32 = 64 << 20;

/// Soft capacity of the idempotency ledger. Eviction kicks in past this
/// size but never drops an entry whose frame is not yet durable, so the
/// true bound is `LEDGER_CAP` + the group-commit window.
pub const LEDGER_CAP: usize = 1024;

fn io_err(e: std::io::Error) -> CoreError {
    CoreError::Las(lidardb_las::LasError::Io(e))
}

/// Map a WAL write-path I/O failure: device exhaustion (`ENOSPC`/`EIO`)
/// becomes the typed [`CoreError::StorageExhausted`] so the owning table
/// can flip into read-only degraded mode; anything else stays a plain
/// I/O error.
fn write_err(op: &str, e: std::io::Error) -> CoreError {
    if is_storage_exhausted_io(&e) {
        CoreError::StorageExhausted(format!("{op}: {e}"))
    } else {
        io_err(e)
    }
}

fn corrupt(msg: impl Into<String>) -> CoreError {
    CoreError::Corrupt(msg.into())
}

/// When acknowledged ingest batches become durable (and therefore visible
/// to queries — the watermark never runs ahead of durability).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// fsync the WAL after every batch. Zero loss of acknowledged writes;
    /// slowest.
    Always,
    /// fsync once `max_batches` appends accumulate or `max_delay` passes
    /// since the last sync, whichever first. A crash can lose at most the
    /// unsynced group — which was never acknowledged as durable.
    GroupCommit {
        /// Batches per group before a forced sync.
        max_batches: usize,
        /// Maximum time a batch waits for its group sync.
        max_delay: Duration,
    },
    /// Never fsync (the OS flushes when it pleases). For benchmarks and
    /// bulk loads that end with an explicit [`seal`](crate::PointCloud::seal);
    /// rows become visible immediately and recovery is best-effort.
    None,
}

impl Default for Durability {
    fn default() -> Self {
        Durability::GroupCommit {
            max_batches: 32,
            max_delay: Duration::from_millis(50),
        }
    }
}

impl Durability {
    /// Display name for reports and benchmarks.
    pub fn name(&self) -> &'static str {
        match self {
            Durability::Always => "always",
            Durability::GroupCommit { .. } => "group_commit",
            Durability::None => "none",
        }
    }
}

/// What `open_ingest` found and did while recovering a WAL, rendered by
/// SQL `SHOW RECOVERY`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Rows in the base dump the WAL was replayed on top of.
    pub base_rows: usize,
    /// Well-formed frames found in the WAL.
    pub wal_frames: usize,
    /// Frames replayed into the table (the rest were already folded into
    /// the dump by a `seal` that crashed before truncating the log).
    pub replayed_frames: usize,
    /// Frames skipped as already contained in the dump.
    pub skipped_frames: usize,
    /// Rows the replay appended.
    pub replayed_rows: usize,
    /// Total rows after recovery.
    pub total_rows: usize,
    /// Bytes of torn/corrupt tail truncated from the log.
    pub truncated_bytes: u64,
    /// Whether the scan stopped at a damaged tail (vs. clean EOF).
    pub torn_tail: bool,
    /// Wall-clock seconds of the WAL scan and replay (the `Recover`
    /// stage). The dump read before them is `PersistLoad`'s and is not
    /// counted here.
    pub seconds: f64,
}

impl RecoveryReport {
    /// Render as aligned `name value` lines (the SQL `SHOW RECOVERY`
    /// payload).
    pub fn render(&self) -> String {
        format!(
            "base_rows {}\nwal_frames {}\nreplayed_frames {}\nskipped_frames {}\n\
             replayed_rows {}\ntotal_rows {}\ntruncated_bytes {}\ntorn_tail {}\nseconds {:.6}",
            self.base_rows,
            self.wal_frames,
            self.replayed_frames,
            self.skipped_frames,
            self.replayed_rows,
            self.total_rows,
            self.truncated_bytes,
            self.torn_tail,
            self.seconds,
        )
    }
}

/// One decoded WAL frame.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    /// Monotonic frame sequence number.
    pub seq: u64,
    /// Cumulative row count (base + all frames through this one).
    pub end_rows: u64,
    /// Idempotency token the batch was stamped with (0 = none).
    pub token: u64,
    /// Per-column little-endian dumps in schema order.
    pub dumps: Vec<Vec<u8>>,
}

/// Encode a batch as one frame. `end_rows` is the cumulative row count
/// after the batch; `token` is the batch's idempotency token (0 = none).
fn encode_frame(seq: u64, end_rows: u64, token: u64, rows: u32, dumps: &[Vec<u8>]) -> Vec<u8> {
    let payload_len: usize = 4 + dumps.iter().map(Vec::len).sum::<usize>();
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN as usize + payload_len);
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
    buf.extend_from_slice(&[0u8; 4]); // crc, patched below
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&end_rows.to_le_bytes());
    buf.extend_from_slice(&token.to_le_bytes());
    buf.extend_from_slice(&rows.to_le_bytes());
    for d in dumps {
        buf.extend_from_slice(d);
    }
    // The CRC'd region (seq ‖ end_rows ‖ token ‖ payload) is contiguous
    // on disk, so verification needs no reassembly copy.
    let crc = crc32(&buf[8..]);
    buf[4..8].copy_from_slice(&crc.to_le_bytes());
    buf
}

/// Encode a WAL header for a log restarting at `base_rows`, embedding a
/// snapshot of (at most the newest [`LEDGER_CAP`]) idempotency tokens.
fn encode_header(base_rows: u64, tokens: &[u64]) -> Vec<u8> {
    let keep = tokens.len().min(LEDGER_CAP);
    let tokens = &tokens[tokens.len() - keep..];
    let mut hdr = Vec::with_capacity(HEADER_LEN as usize + keep * 8);
    hdr.extend_from_slice(MAGIC);
    hdr.extend_from_slice(&base_rows.to_le_bytes());
    hdr.extend_from_slice(&(keep as u32).to_le_bytes());
    for t in tokens {
        hdr.extend_from_slice(&t.to_le_bytes());
    }
    let hcrc = crc32(&hdr);
    hdr.extend_from_slice(&hcrc.to_le_bytes());
    hdr
}

/// Byte size of `rows` rows across the point schema (81 bytes/row today,
/// but derived, not hard-coded).
fn schema_row_bytes() -> usize {
    point_schema().fields().iter().map(|f| f.ptype.size()).sum()
}

/// Split a validated payload into per-column dumps. Returns `None` when
/// the declared row count does not reproduce the payload length exactly.
fn decode_payload(payload: &[u8]) -> Option<(u32, Vec<Vec<u8>>)> {
    if payload.len() < 4 {
        return None;
    }
    let rows = u32::from_le_bytes(payload[..4].try_into().ok()?) as usize;
    let expect = rows.checked_mul(schema_row_bytes())?.checked_add(4)?;
    if expect != payload.len() {
        return None;
    }
    let mut dumps = Vec::new();
    let mut at = 4usize;
    for field in point_schema().fields() {
        let sz = rows * field.ptype.size();
        dumps.push(payload[at..at + sz].to_vec());
        at += sz;
    }
    debug_assert_eq!(at, payload.len());
    Some((rows as u32, dumps))
}

/// The WAL of one streaming-ingest point cloud.
///
/// Owned by `PointCloud`'s ingest state; appends are framed + checksummed,
/// syncs follow the [`Durability`] policy, and `durable_rows` is the row
/// watermark covered by fsynced frames.
#[derive(Debug)]
pub struct WalWriter {
    file: std::fs::File,
    path: PathBuf,
    durability: Durability,
    /// Next frame sequence number.
    seq: u64,
    /// Cumulative rows covered by appended frames (incl. the dump base).
    rows: u64,
    /// Rows covered by *fsynced* frames — the durability watermark.
    durable_rows: u64,
    /// Appends since the last sync (group-commit trigger).
    pending: usize,
    last_sync: Instant,
    /// Idempotency ledger: `(token, end_rows)` of recent tagged batches,
    /// oldest first. Bounded by [`LEDGER_CAP`] + the undurable window.
    ledger: VecDeque<(u64, u64)>,
    fault: Option<Arc<FaultInjector>>,
}

impl WalWriter {
    /// Open (or create) the WAL at `path` for a table currently holding
    /// `base_rows` rows, positioned after `valid_len` bytes of verified
    /// frames covering `wal_rows` rows at sequence `seq`, with the
    /// idempotency ledger recovered from the scan.
    #[allow(clippy::too_many_arguments)]
    fn open_at(
        path: &Path,
        base_rows: u64,
        valid_len: u64,
        rows: u64,
        seq: u64,
        durability: Durability,
        ledger: VecDeque<(u64, u64)>,
        fault: Option<Arc<FaultInjector>>,
    ) -> Result<WalWriter, CoreError> {
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io_err)?;
        let len = file.metadata().map_err(io_err)?.len();
        if len < HEADER_LEN {
            // Fresh (or sub-header) log: write the header for this base.
            file.set_len(0).map_err(io_err)?;
            let tokens: Vec<u64> = ledger.iter().map(|&(t, _)| t).collect();
            let hdr = encode_header(base_rows, &tokens);
            file.write_all(&hdr)
                .map_err(|e| write_err("wal header", e))?;
            file.sync_all()
                .map_err(|e| write_err("wal header sync", e))?;
        } else if len > valid_len {
            // Recovery truncation: drop the torn/corrupt tail so the next
            // append starts at a verified frame boundary.
            file.set_len(valid_len).map_err(io_err)?;
            file.sync_all().map_err(io_err)?;
        }
        file.seek(std::io::SeekFrom::End(0)).map_err(io_err)?;
        let mut w = WalWriter {
            file,
            path: path.to_path_buf(),
            durability,
            seq,
            rows: rows.max(base_rows),
            durable_rows: rows.max(base_rows),
            pending: 0,
            last_sync: Instant::now(),
            ledger,
            fault,
        };
        w.trim_ledger();
        Ok(w)
    }

    /// The log's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rows covered by fsynced frames (the visibility watermark source).
    pub fn durable_rows(&self) -> u64 {
        self.durable_rows
    }

    /// Rows covered by all appended frames, synced or not.
    pub fn appended_rows(&self) -> u64 {
        self.rows
    }

    /// The sync policy.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// If `token` (≠ 0) was already logged, return the cumulative row
    /// count its batch ended at — the dedup signal for idempotent replay.
    pub fn token_seen(&self, token: u64) -> Option<u64> {
        if token == 0 {
            return None;
        }
        self.ledger
            .iter()
            .rev()
            .find(|&&(t, _)| t == token)
            .map(|&(_, end)| end)
    }

    /// Current ledger size (tests and `sys.wal`).
    pub fn ledger_len(&self) -> usize {
        self.ledger.len()
    }

    /// Evict oldest ledger entries past [`LEDGER_CAP`] — but only those
    /// whose frames are durable. An undurable batch is exactly the one a
    /// disconnected client may still be retrying; its token must survive
    /// until the covering frame is fsynced.
    fn trim_ledger(&mut self) {
        while self.ledger.len() > LEDGER_CAP {
            match self.ledger.front() {
                Some(&(_, end)) if end <= self.durable_rows => {
                    self.ledger.pop_front();
                }
                _ => break,
            }
        }
    }

    /// Append one batch (per-column dumps, `rows` rows) as a frame, then
    /// sync per the durability policy. `token` (0 = none) is the batch's
    /// idempotency token, recorded in the ledger on success — the caller
    /// is responsible for checking [`token_seen`](Self::token_seen) first.
    /// Returns whether the frame (and all before it) is durable on return.
    pub fn append_batch(
        &mut self,
        dumps: &[Vec<u8>],
        rows: usize,
        token: u64,
    ) -> Result<bool, CoreError> {
        let seq = self.seq;
        let end_rows = self.rows + rows as u64;
        let mut frame = encode_frame(seq, end_rows, token, rows as u32, dumps);
        if let Some(kind) = self
            .fault
            .as_ref()
            .and_then(|fi| fi.fire(FaultStage::WalAppend, &format!("frame:{seq}")))
        {
            match kind {
                FaultKind::DiskFull => {
                    // The device rejected the write before any byte
                    // landed; surface the typed exhaustion error so the
                    // table degrades instead of crashing.
                    return Err(CoreError::StorageExhausted(format!(
                        "wal append of frame {seq}: {}",
                        kind.to_io_error()
                    )));
                }
                FaultKind::IoError => return Err(io_err(kind.to_io_error())),
                FaultKind::Crash => {
                    // Process died before any byte of the frame reached
                    // the file.
                    return Err(corrupt("injected crash before wal append"));
                }
                _ => {
                    // Torn/short/bit-flipped write: the damaged bytes are
                    // what lands on disk, then the process dies.
                    kind.corrupt(&mut frame);
                    let _ = self.file.write_all(&frame);
                    let _ = self.file.sync_all();
                    return Err(corrupt(format!(
                        "injected {kind:?} during wal append of frame {seq}"
                    )));
                }
            }
        }
        self.file
            .write_all(&frame)
            .map_err(|e| write_err(&format!("wal append of frame {seq}"), e))?;
        self.seq += 1;
        self.rows = end_rows;
        self.pending += 1;
        if token != 0 {
            self.ledger.push_back((token, end_rows));
            self.trim_ledger();
        }
        let due = match self.durability {
            Durability::Always => true,
            Durability::GroupCommit {
                max_batches,
                max_delay,
            } => self.pending >= max_batches || self.last_sync.elapsed() >= max_delay,
            Durability::None => false,
        };
        if due {
            self.sync()?;
        }
        Ok(self.durable_rows == self.rows)
    }

    /// Force a group-commit fsync; everything appended becomes durable.
    pub fn sync(&mut self) -> Result<(), CoreError> {
        if self.durable_rows == self.rows && self.pending == 0 {
            return Ok(());
        }
        let seq = self.seq;
        if let Some(kind) = self
            .fault
            .as_ref()
            .and_then(|fi| fi.fire(FaultStage::WalSync, &format!("sync:{seq}")))
        {
            match kind {
                FaultKind::DiskFull => {
                    // The device refused the fsync: appended frames stay
                    // in the page cache, durability cannot advance.
                    return Err(CoreError::StorageExhausted(format!(
                        "wal sync at seq {seq}: {}",
                        kind.to_io_error()
                    )));
                }
                FaultKind::IoError => return Err(io_err(kind.to_io_error())),
                _ => {
                    // A crash at (or instead of) the fsync: unsynced page
                    // cache is lost. Simulate by cutting the file back to
                    // the durable boundary — wholly (`Crash`) or keeping a
                    // damaged prefix of the unsynced tail (`TornWrite`).
                    let durable_len = self.durable_len()?;
                    let full = self.file.metadata().map_err(io_err)?.len();
                    let mut tail = vec![0u8; (full - durable_len) as usize];
                    self.file
                        .seek(std::io::SeekFrom::Start(durable_len))
                        .map_err(io_err)?;
                    self.file.read_exact(&mut tail).map_err(io_err)?;
                    kind.corrupt(&mut tail);
                    if kind == FaultKind::Crash {
                        tail.clear();
                    }
                    self.file.set_len(durable_len).map_err(io_err)?;
                    self.file
                        .seek(std::io::SeekFrom::Start(durable_len))
                        .map_err(io_err)?;
                    self.file.write_all(&tail).map_err(io_err)?;
                    let _ = self.file.sync_all();
                    return Err(corrupt(format!(
                        "injected {kind:?} during wal sync at seq {seq}"
                    )));
                }
            }
        }
        self.file.sync_all().map_err(|e| write_err("wal sync", e))?;
        self.durable_rows = self.rows;
        self.pending = 0;
        self.last_sync = Instant::now();
        self.trim_ledger();
        crate::metrics::MetricsRegistry::global().wal_syncs.inc();
        Ok(())
    }

    /// Byte length of the durable (fsynced) frame prefix, recomputed by
    /// scanning — only used on the injected-crash path, where exactness
    /// matters more than speed.
    fn durable_len(&mut self) -> Result<u64, CoreError> {
        let durable = self.durable_rows;
        self.file
            .seek(std::io::SeekFrom::Start(0))
            .map_err(io_err)?;
        let mut bytes = Vec::new();
        self.file.read_to_end(&mut bytes).map_err(io_err)?;
        let scan = scan_frames(&bytes, None)?;
        let mut at = scan.header_len;
        for (f, flen) in scan.frames.iter().zip(scan.frame_lens.iter()) {
            if f.end_rows > durable {
                break;
            }
            at += flen;
        }
        Ok(at)
    }

    /// Reset the log after a successful seal: the dump now holds
    /// `base_rows` rows, so the log restarts empty at that base. The
    /// idempotency ledger is snapshotted into the fresh header — the
    /// frames that carried the tokens are being truncated away, but a
    /// client replaying a pre-seal INSERT must still be deduped.
    pub fn reset(&mut self, base_rows: u64) -> Result<(), CoreError> {
        self.file.set_len(0).map_err(io_err)?;
        self.file
            .seek(std::io::SeekFrom::Start(0))
            .map_err(io_err)?;
        let tokens: Vec<u64> = self.ledger.iter().map(|&(t, _)| t).collect();
        let hdr = encode_header(base_rows, &tokens);
        self.file
            .write_all(&hdr)
            .map_err(|e| write_err("wal reset header", e))?;
        self.file
            .sync_all()
            .map_err(|e| write_err("wal reset sync", e))?;
        self.seq = 0;
        self.rows = base_rows;
        self.durable_rows = base_rows;
        self.pending = 0;
        self.last_sync = Instant::now();
        // Every logged row is now in the dump: clamp ledger watermarks to
        // the new base so the eviction rule keeps working.
        for e in self.ledger.iter_mut() {
            e.1 = e.1.min(base_rows);
        }
        self.trim_ledger();
        Ok(())
    }
}

/// Result of scanning a WAL byte image: the committed frame prefix plus
/// where (and whether) the scan hit a damaged tail.
pub(crate) struct WalScan {
    /// The log's base row count from the header (0 for an empty/absent log).
    pub base_rows: u64,
    /// Idempotency tokens snapshotted into the header by the last `seal`.
    pub ledger_tokens: Vec<u64>,
    /// On-disk byte length of the (variable-size) header.
    pub header_len: u64,
    /// Verified frames, in order.
    pub frames: Vec<Frame>,
    /// On-disk byte length of each verified frame.
    pub frame_lens: Vec<u64>,
    /// Bytes of verified prefix (header + frames).
    pub valid_len: u64,
    /// Bytes past the verified prefix (torn tail to truncate).
    pub tail_bytes: u64,
}

/// Scan a WAL image, verifying every length and checksum. Stops cleanly
/// at the first short, torn or corrupt frame — everything before it is
/// the committed prefix, everything after is an untrusted tail.
pub(crate) fn scan_frames(bytes: &[u8], fi: Option<&FaultInjector>) -> Result<WalScan, CoreError> {
    if bytes.is_empty() {
        return Ok(WalScan {
            base_rows: 0,
            ledger_tokens: Vec::new(),
            header_len: 0,
            frames: Vec::new(),
            frame_lens: Vec::new(),
            valid_len: 0,
            tail_bytes: 0,
        });
    }
    if bytes.len() < HEADER_LEN as usize || &bytes[..8] != MAGIC {
        return Err(corrupt("wal: bad header"));
    }
    let base_rows = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    // `ledger_count` is untrusted: bound it by the cap and by the bytes
    // actually present before slicing anything.
    let ledger_count = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    if ledger_count > LEDGER_CAP {
        return Err(corrupt("wal: header ledger count exceeds cap"));
    }
    let header_len = HEADER_LEN as usize + ledger_count * 8;
    if bytes.len() < header_len {
        return Err(corrupt("wal: short header"));
    }
    if crc32(&bytes[..header_len - 4])
        != u32::from_le_bytes(bytes[header_len - 4..header_len].try_into().unwrap())
    {
        return Err(corrupt("wal: bad header"));
    }
    let ledger_tokens: Vec<u64> = (0..ledger_count)
        .map(|i| u64::from_le_bytes(bytes[20 + i * 8..28 + i * 8].try_into().unwrap()))
        .collect();
    let mut frames = Vec::new();
    let mut frame_lens = Vec::new();
    let mut at = header_len;
    let mut prev_end = base_rows;
    let mut prev_seq: Option<u64> = None;
    while at < bytes.len() {
        let remaining = bytes.len() - at;
        if remaining < FRAME_HEADER_LEN as usize {
            break; // short header: torn tail
        }
        let payload_len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        // Untrusted length: capped and checked against the bytes actually
        // present before anything is sliced or allocated.
        if payload_len > MAX_PAYLOAD
            || (payload_len as usize) > remaining - FRAME_HEADER_LEN as usize
        {
            break;
        }
        let declared_crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        let seq = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
        let end_rows = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap());
        let token = u64::from_le_bytes(bytes[at + 24..at + 32].try_into().unwrap());
        let payload = &bytes[at + 32..at + 32 + payload_len as usize];
        if crc32(&bytes[at + 8..at + 32 + payload_len as usize]) != declared_crc {
            break;
        }
        if let Some(kind) = fi.and_then(|fi| fi.fire(FaultStage::Recover, &format!("frame:{seq}")))
        {
            return Err(match kind {
                FaultKind::IoError => io_err(kind.to_io_error()),
                other => corrupt(format!(
                    "injected {other:?} during wal replay of frame {seq}"
                )),
            });
        }
        // Structural checks beyond the checksum: sequence and row
        // bookkeeping must chain. (A valid CRC over nonsense frames —
        // e.g. spliced from another log — must not replay.)
        if prev_seq.is_some_and(|p| seq != p + 1) || (prev_seq.is_none() && seq != 0) {
            break;
        }
        let Some((rows, dumps)) = decode_payload(payload) else {
            break;
        };
        if end_rows != prev_end + rows as u64 {
            break;
        }
        prev_seq = Some(seq);
        prev_end = end_rows;
        frames.push(Frame {
            seq,
            end_rows,
            token,
            dumps,
        });
        let flen = FRAME_HEADER_LEN + payload_len as u64;
        frame_lens.push(flen);
        at += flen as usize;
    }
    Ok(WalScan {
        base_rows,
        ledger_tokens,
        header_len: header_len as u64,
        frames,
        frame_lens,
        valid_len: at as u64,
        tail_bytes: (bytes.len() - at) as u64,
    })
}

/// Scan the WAL at `path` (absent = empty), returning the verified scan.
pub(crate) fn scan_file(path: &Path, fi: Option<&FaultInjector>) -> Result<WalScan, CoreError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err(e)),
    };
    scan_frames(&bytes, fi)
}

/// Open a [`WalWriter`] positioned after the verified prefix of `path`
/// (truncating any torn tail), for a table currently holding `table_rows`
/// rows.
pub(crate) fn open_writer(
    path: &Path,
    table_rows: u64,
    durability: Durability,
    fault: Option<Arc<FaultInjector>>,
) -> Result<WalWriter, CoreError> {
    let scan = scan_file(path, None)?;
    let (rows, seq) = match scan.frames.last() {
        Some(f) => (f.end_rows, f.seq + 1),
        None => (scan.base_rows.max(table_rows), 0),
    };
    // Rebuild the idempotency ledger: header snapshot first (those tokens
    // predate the log, so their rows are covered by the dump base), then
    // every tagged frame in scan order.
    let mut ledger: VecDeque<(u64, u64)> = scan
        .ledger_tokens
        .iter()
        .map(|&t| (t, scan.base_rows))
        .collect();
    for f in &scan.frames {
        if f.token != 0 {
            ledger.push_back((f.token, f.end_rows));
        }
    }
    WalWriter::open_at(
        path,
        table_rows,
        scan.valid_len,
        rows,
        seq,
        durability,
        ledger,
        fault,
    )
}

/// The conventional WAL path for a dump directory: a sibling file, not a
/// child — `seal()` replaces the directory wholesale with one rename, and
/// the log must survive that swap.
pub fn wal_path_for(dir: &Path) -> PathBuf {
    let name = dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "table".to_string());
    dir.with_file_name(format!("{name}.wal"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidardb_test_support::ScratchDir;

    fn dumps_of(rows: usize, salt: u8) -> Vec<Vec<u8>> {
        point_schema()
            .fields()
            .iter()
            .enumerate()
            .map(|(ci, f)| {
                (0..rows * f.ptype.size())
                    .map(|i| (i as u8).wrapping_mul(31) ^ salt ^ ci as u8)
                    .collect()
            })
            .collect()
    }

    /// A WAL file of one test's own: the sibling WAL of a fresh scratch
    /// directory (pid + counter), removed with it when the guard drops.
    struct TestWal {
        path: PathBuf,
        _dir: ScratchDir,
    }

    fn twal(name: &str) -> TestWal {
        let dir = ScratchDir::vacant(&format!("wal_{name}"));
        TestWal {
            path: wal_path_for(&dir),
            _dir: dir,
        }
    }

    impl std::ops::Deref for TestWal {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.path
        }
    }

    impl AsRef<Path> for TestWal {
        fn as_ref(&self) -> &Path {
            &self.path
        }
    }

    /// Every frame and the header carry the reference CRC — frames run
    /// the carry-less fold where the CPU has it, the short header the
    /// portable kernel — and recovery replays every batch intact.
    #[test]
    fn wal_crcs_match_the_reference_and_recover_every_batch() {
        let p = twal("crc_reference");
        let mut w = open_writer(&p, 7, Durability::Always, None).unwrap();
        let batches: Vec<(usize, u8)> = vec![(1, 3), (2, 9), (17, 1), (300, 5)];
        for &(rows, seed) in &batches {
            w.append_batch(&dumps_of(rows, seed), rows, 0).unwrap();
        }
        let bytes = std::fs::read(&p).unwrap();
        let header_len = HEADER_LEN as usize;
        let stored = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        assert_eq!(
            stored(header_len - 4),
            crate::crc::bytewise(&bytes[..header_len - 4])
        );
        let mut at = header_len;
        for _ in &batches {
            let payload = stored(at) as usize;
            let end = at + FRAME_HEADER_LEN as usize + payload;
            assert_eq!(stored(at + 4), crate::crc::bytewise(&bytes[at + 8..end]));
            at = end;
        }
        assert_eq!(at, bytes.len());
        let scan = scan_file(&p, None).unwrap();
        assert_eq!(scan.frames.len(), batches.len());
        for (frame, &(rows, seed)) in scan.frames.iter().zip(&batches) {
            assert_eq!(frame.dumps, dumps_of(rows, seed));
        }
    }

    #[test]
    fn frame_roundtrip_and_scan() {
        let p = twal("roundtrip");
        let mut w = open_writer(&p, 100, Durability::Always, None).unwrap();
        assert!(w.append_batch(&dumps_of(10, 1), 10, 0).unwrap());
        assert!(w.append_batch(&dumps_of(3, 2), 3, 0).unwrap());
        assert_eq!(w.durable_rows(), 113);
        let scan = scan_file(&p, None).unwrap();
        assert_eq!(scan.base_rows, 100);
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.tail_bytes, 0);
        assert_eq!(scan.frames[0].end_rows, 110);
        assert_eq!(scan.frames[1].end_rows, 113);
        assert_eq!(scan.frames[1].dumps, dumps_of(3, 2));
    }

    #[test]
    fn torn_tail_is_detected_and_prefix_survives() {
        let p = twal("torn");
        let mut w = open_writer(&p, 0, Durability::Always, None).unwrap();
        w.append_batch(&dumps_of(8, 1), 8, 0).unwrap();
        w.append_batch(&dumps_of(8, 2), 8, 0).unwrap();
        drop(w);
        let full = std::fs::read(&p).unwrap();
        // Cut the file mid-second-frame at every possible byte boundary:
        // the scan must always recover exactly frame 1 (or 0 or 2 at the
        // clean boundaries) and flag the tail.
        let scan = scan_frames(&full, None).unwrap();
        let f1_end = (HEADER_LEN + scan.frame_lens[0]) as usize;
        for cut in [f1_end + 1, f1_end + 7, full.len() - 1] {
            let scan = scan_frames(&full[..cut], None).unwrap();
            assert_eq!(scan.frames.len(), 1, "cut at {cut}");
            assert_eq!(scan.valid_len as usize, f1_end);
            assert!(scan.tail_bytes > 0);
        }
    }

    #[test]
    fn bit_flip_anywhere_in_a_frame_is_detected() {
        let p = twal("bitflip");
        let mut w = open_writer(&p, 0, Durability::Always, None).unwrap();
        w.append_batch(&dumps_of(4, 9), 4, 0).unwrap();
        drop(w);
        let good = std::fs::read(&p).unwrap();
        // Flip one bit at a spread of offsets within the frame; the frame
        // must never survive the scan. (Offsets in the length field can
        // also legitimately yield a "short tail" — either way, 0 frames.)
        for off in (HEADER_LEN as usize..good.len()).step_by(37) {
            let mut evil = good.clone();
            evil[off] ^= 0x04;
            let scan = scan_frames(&evil, None).unwrap();
            assert_eq!(scan.frames.len(), 0, "bit flip at {off} replayed!");
        }
    }

    #[test]
    fn header_corruption_is_an_error_not_a_replay() {
        let p = twal("hdr");
        let mut w = open_writer(&p, 42, Durability::Always, None).unwrap();
        w.append_batch(&dumps_of(2, 3), 2, 0).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[9] ^= 0xFF; // base_rows byte — caught by the header CRC
        assert!(scan_frames(&bytes, None).is_err());
        bytes[9] ^= 0xFF;
        bytes[0] = b'X'; // magic
        assert!(scan_frames(&bytes, None).is_err());
    }

    #[test]
    fn forged_giant_length_rejected_without_allocating() {
        let p = twal("forged");
        let mut w = open_writer(&p, 0, Durability::Always, None).unwrap();
        w.append_batch(&dumps_of(2, 4), 2, 0).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&p).unwrap();
        let at = HEADER_LEN as usize;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        // Must terminate instantly treating it as a torn tail — not try
        // to allocate 4 GiB.
        let scan = scan_frames(&bytes, None).unwrap();
        assert_eq!(scan.frames.len(), 0);
        assert!(scan.tail_bytes > 0);
    }

    #[test]
    fn spliced_frames_with_valid_crcs_do_not_replay() {
        // Frames copied from another log have valid CRCs but broken
        // seq/row chains; the structural checks must stop the replay.
        let p1 = twal("splice1");
        let mut w = open_writer(&p1, 0, Durability::Always, None).unwrap();
        w.append_batch(&dumps_of(2, 1), 2, 0).unwrap();
        w.append_batch(&dumps_of(2, 2), 2, 0).unwrap();
        drop(w);
        let bytes = std::fs::read(&p1).unwrap();
        let scan = scan_frames(&bytes, None).unwrap();
        let f1 = (HEADER_LEN + scan.frame_lens[0]) as usize;
        // Duplicate frame 2 (seq gap: 0,1,1) — second copy must not replay.
        let mut spliced = bytes.clone();
        spliced.extend_from_slice(&bytes[f1..]);
        let scan = scan_frames(&spliced, None).unwrap();
        assert_eq!(scan.frames.len(), 2, "duplicated frame must not replay");
        // Drop frame 1, keeping frame 2 (starts at seq 1): nothing replays.
        let mut gapped = bytes[..HEADER_LEN as usize].to_vec();
        gapped.extend_from_slice(&bytes[f1..]);
        let scan = scan_frames(&gapped, None).unwrap();
        assert_eq!(scan.frames.len(), 0, "gapped sequence must not replay");
    }

    #[test]
    fn group_commit_defers_durability_until_threshold_or_flush() {
        let p = twal("group");
        let mut w = open_writer(
            &p,
            0,
            Durability::GroupCommit {
                max_batches: 3,
                max_delay: Duration::from_secs(3600),
            },
            None,
        )
        .unwrap();
        assert!(!w.append_batch(&dumps_of(1, 1), 1, 0).unwrap());
        assert!(!w.append_batch(&dumps_of(1, 2), 1, 0).unwrap());
        assert_eq!(w.durable_rows(), 0);
        assert!(w.append_batch(&dumps_of(1, 3), 1, 0).unwrap(), "3rd trips");
        assert_eq!(w.durable_rows(), 3);
        assert!(!w.append_batch(&dumps_of(1, 4), 1, 0).unwrap());
        w.sync().unwrap();
        assert_eq!(w.durable_rows(), 4);
    }

    #[test]
    fn writer_resumes_after_reopen_with_torn_tail() {
        let p = twal("resume");
        let mut w = open_writer(&p, 0, Durability::Always, None).unwrap();
        w.append_batch(&dumps_of(5, 1), 5, 0).unwrap();
        w.append_batch(&dumps_of(5, 2), 5, 0).unwrap();
        drop(w);
        // Tear the second frame.
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() - 3]).unwrap();
        let mut w = open_writer(&p, 5, Durability::Always, None).unwrap();
        assert_eq!(w.durable_rows(), 5, "resumes at the committed prefix");
        w.append_batch(&dumps_of(2, 3), 2, 0).unwrap();
        drop(w);
        let scan = scan_file(&p, None).unwrap();
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.frames[1].seq, 1, "sequence continues the prefix");
        assert_eq!(scan.frames[1].end_rows, 7);
        assert_eq!(scan.tail_bytes, 0, "torn tail was truncated on reopen");
    }

    #[test]
    fn reset_restarts_the_log_at_a_new_base() {
        let p = twal("reset");
        let mut w = open_writer(&p, 0, Durability::Always, None).unwrap();
        w.append_batch(&dumps_of(6, 1), 6, 0).unwrap();
        w.reset(6).unwrap();
        assert_eq!(w.durable_rows(), 6);
        w.append_batch(&dumps_of(2, 2), 2, 0).unwrap();
        let scan = scan_file(&p, None).unwrap();
        assert_eq!(scan.base_rows, 6);
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.frames[0].seq, 0);
        assert_eq!(scan.frames[0].end_rows, 8);
    }

    #[test]
    fn wal_path_is_a_sibling_of_the_dump_dir() {
        let p = wal_path_for(Path::new("/data/clouds/tbl"));
        assert_eq!(p, Path::new("/data/clouds/tbl.wal"));
    }

    #[test]
    fn tokens_ride_frames_and_rebuild_the_ledger_on_reopen() {
        let p = twal("tokens");
        let mut w = open_writer(&p, 0, Durability::Always, None).unwrap();
        w.append_batch(&dumps_of(3, 1), 3, 71).unwrap();
        w.append_batch(&dumps_of(2, 2), 2, 0).unwrap(); // untagged
        w.append_batch(&dumps_of(4, 3), 4, 72).unwrap();
        assert_eq!(w.token_seen(71), Some(3));
        assert_eq!(w.token_seen(72), Some(9));
        assert_eq!(w.token_seen(0), None, "0 is the no-token sentinel");
        assert_eq!(w.token_seen(99), None);
        assert_eq!(w.ledger_len(), 2, "untagged frames take no ledger slot");
        drop(w);
        let scan = scan_file(&p, None).unwrap();
        assert_eq!(scan.frames[0].token, 71);
        assert_eq!(scan.frames[1].token, 0);
        assert_eq!(scan.frames[2].token, 72);
        // Reopen: the ledger comes back from the scanned frames.
        let w = open_writer(&p, 9, Durability::Always, None).unwrap();
        assert_eq!(w.token_seen(71), Some(3));
        assert_eq!(w.token_seen(72), Some(9));
    }

    #[test]
    fn reset_snapshots_the_ledger_into_the_header() {
        let p = twal("ledger_reset");
        let mut w = open_writer(&p, 0, Durability::Always, None).unwrap();
        w.append_batch(&dumps_of(5, 1), 5, 1001).unwrap();
        w.append_batch(&dumps_of(5, 2), 5, 1002).unwrap();
        // Seal: frames truncated away, tokens must survive in the header.
        w.reset(10).unwrap();
        assert!(w.token_seen(1001).is_some(), "token survives reset");
        assert!(w.token_seen(1002).is_some());
        drop(w);
        let scan = scan_file(&p, None).unwrap();
        assert_eq!(scan.ledger_tokens, vec![1001, 1002]);
        assert_eq!(scan.frames.len(), 0);
        // Reopen after the (sealed) restart: replayed tokens still dedup.
        let w = open_writer(&p, 10, Durability::Always, None).unwrap();
        assert_eq!(w.token_seen(1001), Some(10), "clamped to the new base");
        assert_eq!(w.token_seen(1002), Some(10));
    }

    #[test]
    fn ledger_eviction_respects_the_durable_watermark() {
        let p = twal("ledger_evict");
        let mut w = open_writer(
            &p,
            0,
            Durability::GroupCommit {
                max_batches: usize::MAX,
                max_delay: Duration::from_secs(3600),
            },
            None,
        )
        .unwrap();
        // Overfill the ledger with undurable tagged batches: nothing may
        // be evicted — a disconnected client could still retry any one.
        for i in 0..LEDGER_CAP + 10 {
            w.append_batch(&dumps_of(1, i as u8), 1, 10_000 + i as u64)
                .unwrap();
        }
        assert_eq!(
            w.ledger_len(),
            LEDGER_CAP + 10,
            "undurable tokens are never evicted"
        );
        // Once durable, the overflow is trimmed back to the cap…
        w.sync().unwrap();
        assert_eq!(w.ledger_len(), LEDGER_CAP);
        // …dropping the oldest tokens, keeping the newest.
        assert_eq!(w.token_seen(10_000), None, "oldest evicted");
        assert!(w.token_seen(10_000 + (LEDGER_CAP as u64 + 9)).is_some());
    }

    #[test]
    fn forged_ledger_count_is_rejected_without_allocating() {
        let p = twal("ledger_forged");
        let mut w = open_writer(&p, 7, Durability::Always, None).unwrap();
        w.append_batch(&dumps_of(2, 1), 2, 5).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&p).unwrap();
        // Forge a giant ledger count; must be rejected by the cap check
        // before any slice or allocation (and before the CRC even runs).
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(scan_frames(&bytes, None).is_err());
        // A count within the cap but past EOF is a short header, also an
        // error rather than a replay.
        bytes[16..20].copy_from_slice(&64u32.to_le_bytes());
        assert!(scan_frames(&bytes, None).is_err());
    }

    #[test]
    fn injected_disk_full_is_typed_storage_exhaustion() {
        let p = twal("diskfull");
        let fi = Arc::new(FaultInjector::new());
        fi.inject(FaultStage::WalAppend, None, FaultKind::DiskFull);
        let mut w = open_writer(&p, 0, Durability::Always, Some(fi.clone())).unwrap();
        let err = w.append_batch(&dumps_of(2, 1), 2, 0).unwrap_err();
        assert!(matches!(err, CoreError::StorageExhausted(_)), "got {err:?}");
        assert!(!err.is_transient());
        // Nothing reached the medium: the next append succeeds cleanly
        // and the log has no damaged bytes.
        w.append_batch(&dumps_of(2, 2), 2, 0).unwrap();
        let scan = scan_file(&p, None).unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.tail_bytes, 0);
    }
}
