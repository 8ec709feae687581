//! Deterministic fault injection for durability testing.
//!
//! The persistence and load paths carry optional hooks ([`FaultInjector`])
//! that tests use to inject I/O faults at precise points: truncations,
//! single-bit flips, short writes, transient errors, and simulated
//! crashes. Every fault is derived from an explicit seed, so a failing
//! test reproduces byte-for-byte.
//!
//! Production code never constructs an injector; the hooks are `Option`
//! and cost one branch when absent.

use std::sync::Mutex;

/// Where in the pipeline a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStage {
    /// Writing one column dump during `save_dir` (target = column name).
    WriteColumn,
    /// Writing the manifest during `save_dir`.
    WriteManifest,
    /// The staging-directory rename that commits a save.
    Commit,
    /// Reading one column dump during `open_dir` (target = column name).
    ReadColumn,
    /// Reading the manifest during `open_dir`.
    ReadManifest,
    /// Decoding one input file in the bulk loader (target = file name).
    LoadDecode,
    /// Building a column imprint (target = column name).
    ImprintBuild,
    /// A cooperative-cancellation checkpoint on the query path (target =
    /// the surrounding stage name, e.g. `"bbox_scan"`); pairs with the
    /// `Cancel` and `Stall` kinds.
    QueryCheckpoint,
    /// Appending one framed batch to the write-ahead log (target =
    /// `"frame:<seq>"`). Byte-level kinds corrupt the frame *as written*,
    /// modelling a crash mid-write.
    WalAppend,
    /// The WAL group-commit fsync (target = `"sync:<seq>"`). `Crash`
    /// drops every unsynced byte; `TornWrite` persists only a prefix of
    /// them — the two page-cache-loss shapes a real power cut produces.
    WalSync,
    /// Sealing the WAL into a fresh dump: fires between the dump's commit
    /// rename and the WAL truncation, the window idempotent replay must
    /// cover.
    Seal,
    /// Replaying the WAL during `open_ingest` recovery (target =
    /// `"frame:<seq>"`).
    Recover,
}

/// What kind of fault fires. Seeds make the corruption deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient I/O error (`ErrorKind::Interrupted`) — retryable.
    IoError,
    /// Drop a seed-chosen number of trailing bytes (at least one).
    Truncate(u64),
    /// Flip one seed-chosen bit.
    BitFlip(u64),
    /// Keep only a seed-chosen prefix (possibly empty) — a write that
    /// returned early.
    ShortWrite(u64),
    /// Simulate the process dying at this point: the operation stops
    /// immediately, leaving whatever partial state exists on disk.
    Crash,
    /// Trip the query's cancellation token at a `QueryCheckpoint`, as a
    /// `KILL` landing at exactly that point would.
    Cancel,
    /// Sleep this many milliseconds at a `QueryCheckpoint`, so a
    /// statement deadline expires deterministically mid-stage.
    Stall(u64),
    /// A torn write: only a seed-chosen prefix reaches the medium *and*
    /// one bit of its tail is damaged — the classic power-cut shape a
    /// checksummed WAL frame must detect and truncate, never replay.
    TornWrite(u64),
    /// The device rejects the write with `ENOSPC`: the WAL append fails
    /// typed (`CoreError::StorageExhausted`) and the table flips into
    /// read-only degraded mode. Nothing reaches the medium.
    DiskFull,
}

/// One bounded-mix step of splitmix64; enough to spread a test seed.
/// Public: the chaos proxy and the retrying client derive their
/// per-connection fault plans and backoff jitter from the same mixer, so
/// a failing soak reproduces from its seed alone.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultKind {
    /// Apply a byte-level fault to an in-flight buffer. `IoError` and
    /// `Crash` are not byte-level; callers handle them before this.
    pub fn corrupt(&self, bytes: &mut Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        match *self {
            FaultKind::Truncate(seed) => {
                let drop = 1 + (mix(seed) as usize) % bytes.len();
                bytes.truncate(bytes.len() - drop);
            }
            FaultKind::BitFlip(seed) => {
                let bit = (mix(seed) as usize) % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            FaultKind::ShortWrite(seed) => {
                let keep = (mix(seed) as usize) % bytes.len();
                bytes.truncate(keep);
            }
            FaultKind::TornWrite(seed) => {
                // Keep a proper prefix, then flip one bit near its end:
                // a sector boundary cut through the frame plus in-flight
                // bit rot, both under the same seed.
                let keep = 1 + (mix(seed) as usize) % bytes.len().max(1);
                bytes.truncate(keep.min(bytes.len().saturating_sub(1)).max(1));
                if !bytes.is_empty() {
                    let tail = bytes.len().saturating_sub(8);
                    let span = bytes.len() - tail;
                    let bit = (mix(seed ^ 0xD1F7) as usize) % (span * 8);
                    bytes[tail + bit / 8] ^= 1 << (bit % 8);
                }
            }
            FaultKind::IoError
            | FaultKind::Crash
            | FaultKind::Cancel
            | FaultKind::Stall(_)
            | FaultKind::DiskFull => {}
        }
    }

    /// The `std::io::Error` this fault surfaces as, where applicable.
    pub fn to_io_error(&self) -> std::io::Error {
        match self {
            FaultKind::IoError => std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected transient I/O error",
            ),
            // Raw ENOSPC, so the same classifier handles injected and
            // real device exhaustion.
            FaultKind::DiskFull => std::io::Error::from_raw_os_error(28),
            other => std::io::Error::other(format!("injected fault: {other:?}")),
        }
    }
}

#[derive(Debug)]
struct Rule {
    stage: FaultStage,
    /// `None` matches any target at the stage.
    target: Option<String>,
    kind: FaultKind,
    /// Hits to let through before firing.
    skip: u32,
    /// Times left to fire; 0 = exhausted.
    fires: u32,
}

/// A scripted set of fault rules, shareable across loader worker threads.
///
/// Rules are matched in insertion order; the first live match fires (its
/// budget decrements) and its [`FaultKind`] is returned to the hook site.
#[derive(Debug, Default)]
pub struct FaultInjector {
    rules: Mutex<Vec<Rule>>,
    fired: Mutex<Vec<(FaultStage, String, FaultKind)>>,
}

impl FaultInjector {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fire `kind` on the next hit of `stage` whose target contains
    /// `target` (any target if `None`). Fires once.
    pub fn inject(&self, stage: FaultStage, target: Option<&str>, kind: FaultKind) {
        self.inject_n(stage, target, kind, 0, 1);
    }

    /// Fire `kind` at `stage`/`target` after letting `skip` hits through,
    /// then up to `fires` times.
    pub fn inject_n(
        &self,
        stage: FaultStage,
        target: Option<&str>,
        kind: FaultKind,
        skip: u32,
        fires: u32,
    ) {
        self.rules.lock().unwrap().push(Rule {
            stage,
            target: target.map(str::to_string),
            kind,
            skip,
            fires,
        });
    }

    /// Hook called from instrumented code. Returns the fault to apply, if
    /// any rule matches this `(stage, target)` hit.
    pub fn fire(&self, stage: FaultStage, target: &str) -> Option<FaultKind> {
        let mut rules = self.rules.lock().unwrap();
        for rule in rules.iter_mut() {
            if rule.stage != stage || rule.fires == 0 {
                continue;
            }
            if let Some(t) = &rule.target {
                if !target.contains(t.as_str()) {
                    continue;
                }
            }
            if rule.skip > 0 {
                rule.skip -= 1;
                continue;
            }
            rule.fires -= 1;
            let kind = rule.kind;
            drop(rules);
            self.fired
                .lock()
                .unwrap()
                .push((stage, target.to_string(), kind));
            return Some(kind);
        }
        None
    }

    /// Every fault that actually fired, in order (test observability).
    pub fn fired(&self) -> Vec<(FaultStage, String, FaultKind)> {
        self.fired.lock().unwrap().clone()
    }

    /// Drop every remaining rule (the fired history stays). Soaks use
    /// this to end an injected fault window — e.g. "the operator freed
    /// disk space" — without rebuilding the injector the table holds.
    pub fn clear(&self) {
        self.rules.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corruption_is_deterministic_and_real() {
        let orig: Vec<u8> = (0..=255).collect();
        for kind in [
            FaultKind::Truncate(7),
            FaultKind::BitFlip(7),
            FaultKind::ShortWrite(7),
            FaultKind::TornWrite(7),
        ] {
            let mut a = orig.clone();
            let mut b = orig.clone();
            kind.corrupt(&mut a);
            kind.corrupt(&mut b);
            assert_eq!(a, b, "{kind:?} deterministic");
            assert_ne!(a, orig, "{kind:?} changes the buffer");
        }
        // Different seeds flip different bits.
        let mut a = orig.clone();
        let mut b = orig.clone();
        FaultKind::BitFlip(1).corrupt(&mut a);
        FaultKind::BitFlip(2).corrupt(&mut b);
        assert_ne!(a, b);
        // Degenerate buffers are left alone rather than panicking.
        let mut empty = Vec::new();
        FaultKind::Truncate(0).corrupt(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn rules_match_target_skip_and_budget() {
        let fi = FaultInjector::new();
        fi.inject_n(
            FaultStage::LoadDecode,
            Some("b.las"),
            FaultKind::IoError,
            1,
            2,
        );
        // Wrong target, wrong stage: no fire.
        assert!(fi.fire(FaultStage::LoadDecode, "a.las").is_none());
        assert!(fi.fire(FaultStage::ReadColumn, "b.las").is_none());
        // First matching hit is skipped, next two fire, then exhausted.
        assert!(fi.fire(FaultStage::LoadDecode, "b.las").is_none());
        assert!(fi.fire(FaultStage::LoadDecode, "b.las").is_some());
        assert!(fi.fire(FaultStage::LoadDecode, "dir/b.las").is_some());
        assert!(fi.fire(FaultStage::LoadDecode, "b.las").is_none());
        assert_eq!(fi.fired().len(), 2);
        // clear() ends a fault window: live rules vanish, history stays.
        fi.inject_n(FaultStage::WalAppend, None, FaultKind::DiskFull, 0, 100);
        fi.clear();
        assert!(fi.fire(FaultStage::WalAppend, "frame:0").is_none());
        assert_eq!(fi.fired().len(), 2);
    }

    #[test]
    fn disk_full_surfaces_as_enospc() {
        let e = FaultKind::DiskFull.to_io_error();
        assert_eq!(e.raw_os_error(), Some(28), "raw ENOSPC: {e}");
        // Not byte-level: the buffer is untouched (the write never ran).
        let orig: Vec<u8> = (0..32).collect();
        let mut b = orig.clone();
        FaultKind::DiskFull.corrupt(&mut b);
        assert_eq!(b, orig);
    }

    #[test]
    fn torn_write_is_a_damaged_proper_prefix() {
        let orig: Vec<u8> = (0..=255).collect();
        let mut b = orig.clone();
        FaultKind::TornWrite(3).corrupt(&mut b);
        assert!(!b.is_empty() && b.len() < orig.len(), "proper prefix");
        assert_ne!(&orig[..b.len()], &b[..], "tail bit damaged");
        // Single-byte buffers survive without panicking.
        let mut one = vec![0xAAu8];
        FaultKind::TornWrite(9).corrupt(&mut one);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn io_error_kind_is_transient() {
        let e = FaultKind::IoError.to_io_error();
        assert_eq!(e.kind(), std::io::ErrorKind::Interrupted);
    }

    #[test]
    fn query_fault_kinds_are_not_byte_level() {
        // Cancel and Stall act at checkpoints, never on buffers.
        let orig: Vec<u8> = (0..64).collect();
        for kind in [FaultKind::Cancel, FaultKind::Stall(50)] {
            let mut b = orig.clone();
            kind.corrupt(&mut b);
            assert_eq!(b, orig, "{kind:?} must not touch bytes");
        }
        let fi = FaultInjector::new();
        fi.inject(FaultStage::QueryCheckpoint, Some("bbox"), FaultKind::Cancel);
        assert!(fi
            .fire(FaultStage::QueryCheckpoint, "grid_refine")
            .is_none());
        assert_eq!(
            fi.fire(FaultStage::QueryCheckpoint, "bbox_scan"),
            Some(FaultKind::Cancel)
        );
    }
}
