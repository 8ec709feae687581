//! The flight recorder: an always-on, bounded ring of metric samples.
//!
//! `EXPLAIN ANALYZE` and the slow-query log answer "what did *this query*
//! do"; [`crate::metrics::MetricsRegistry`] answers "what has the process
//! done *in total*". Neither answers the incident question — "what was the
//! server doing **ninety seconds ago**, when latency spiked?" — unless an
//! operator happened to be scraping at the time. The recorder closes that
//! gap the way an aircraft flight recorder does: a background sampler
//! snapshots every process counter and gauge (plus admission queue depth,
//! resident tile bytes, WAL backlog and connection counts, which all live
//! in the registry as gauges) every few hundred milliseconds into a
//! fixed-size ring, so the last ~10 minutes of history are *always*
//! queryable after the fact — through the `sys.recorder` virtual table or
//! a Prometheus scrape — without anything having been enabled in advance.
//!
//! Design, mirroring the [`crate::trace::Tracer`] seqlock idiom:
//!
//! * **Fixed memory.** [`RECORDER_SLOTS`] slots of [`SLOT_BYTES`] payload
//!   bytes each (~740 KiB total); the ring never allocates after startup
//!   and simply laps itself.
//! * **Delta compression.** Each sample stores its series values as
//!   zigzag-varint deltas against the previous sample; counters move
//!   slowly between ticks, so a full sample typically packs into a few
//!   dozen bytes of its slot. Every [`KEYFRAME_EVERY`]th sample is a
//!   keyframe holding absolute values, so readers can decode after the
//!   ring wraps without replaying from the beginning of time.
//! * **Lock-free readers.** Every slot carries a seqlock word (odd while
//!   the writer is inside, `2·claim + 2` when stable); readers detect torn
//!   or lapped slots and skip them. Writers (the sampler thread, plus
//!   tests calling [`Recorder::sample_now`]) serialise on a mutex — the
//!   write path runs a few times per second, so contention is not a
//!   concern there; the *read* path never blocks a scrape or a query.
//!
//! The sampler thread is started by [`Recorder::start_sampler`] (the
//! network server does this on startup); a process that never starts it
//! pays nothing but the ring's idle memory.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use crate::metrics::MetricsRegistry;

/// Number of ring slots. At the default sampling interval
/// ([`DEFAULT_INTERVAL_MS`]) the ring holds a little over ten minutes.
pub const RECORDER_SLOTS: usize = 2048;

/// Default milliseconds between samples.
pub const DEFAULT_INTERVAL_MS: u64 = 300;

/// Every this-many samples is a keyframe (absolute values instead of
/// deltas): the decode entry points after the ring laps.
pub const KEYFRAME_EVERY: u64 = 64;

/// Payload words per slot; sized for the worst case of every series value
/// needing a full 10-byte varint.
const SLOT_WORDS: usize = 42;

/// Payload bytes per slot.
pub const SLOT_BYTES: usize = SLOT_WORDS * 8;

/// Keyframe flag in the slot's `len` word.
const FLAG_KEYFRAME: u64 = 1 << 63;

// ----------------------------------------------------------- varint codec

/// Zigzag-map a signed delta onto an unsigned varint domain.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// LEB128-append `v` to `buf`.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// LEB128-decode at `*pos`, advancing it. `None` on truncation/overflow.
fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return None;
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

// ------------------------------------------------------------- the series

/// Names of the scalar series each sample captures, in value order:
/// every registry counter, then every registry gauge. Built once; the
/// registry accessors are the single source of truth, so a counter added
/// there shows up here (and in `sys.recorder`) automatically.
pub fn series_names() -> &'static [&'static str] {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    NAMES.get_or_init(|| {
        let m = MetricsRegistry::global();
        m.counter_values()
            .iter()
            .map(|(n, _)| *n)
            .chain(m.gauge_values().iter().map(|(n, _)| *n))
            .collect()
    })
}

fn collect_values(m: &MetricsRegistry) -> Vec<u64> {
    m.counter_values()
        .iter()
        .map(|(_, v)| *v)
        .chain(m.gauge_values().iter().map(|(_, v)| *v))
        .collect()
}

/// One decoded sample: a point-in-time view of every series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecorderSample {
    /// The sample's position in the recording (strictly increasing).
    pub seq: u64,
    /// Registry uptime when the sample was taken (the rate-conversion
    /// clock — the same one `snapshot_json` stamps).
    pub uptime_ns: u64,
    /// Series values, index-aligned with [`series_names`].
    pub values: Vec<u64>,
}

impl RecorderSample {
    /// Value of the named series, if it exists.
    pub fn value(&self, name: &str) -> Option<u64> {
        let idx = series_names().iter().position(|n| *n == name)?;
        self.values.get(idx).copied()
    }
}

// --------------------------------------------------------------- the ring

/// One ring slot: seqlock word, sample seq, uptime, payload length (with
/// the keyframe flag in the top bit) and the packed payload words.
struct Slot {
    seq: AtomicU64,
    sample_seq: AtomicU64,
    uptime_ns: AtomicU64,
    len: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            sample_seq: AtomicU64::new(0),
            uptime_ns: AtomicU64::new(0),
            len: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Writer-side state, serialised under one mutex.
struct WriterState {
    /// Values of the previous sample (delta base); `None` before the first.
    prev: Option<Vec<u64>>,
    /// Samples written so far == seq of the next sample.
    claim: u64,
}

/// The flight recorder. One process-wide instance ([`Recorder::global`]);
/// private instances exist only for tests.
pub struct Recorder {
    /// The registry every sample reads ([`MetricsRegistry::global`] for the
    /// process-wide recorder; a private one in tests, so concurrent tests'
    /// counters never leak into a sample).
    metrics: &'static MetricsRegistry,
    slots: Box<[Slot]>,
    /// Uncompressed absolute copy of the most recent sample, so the
    /// Prometheus scrape path reads one seqlock slot and never decodes.
    latest: Slot,
    latest_values: Box<[AtomicU64]>,
    /// Published `claim` for readers (release after each write).
    published: AtomicU64,
    writer: Mutex<WriterState>,
    sampler_running: AtomicBool,
    interval_ms: AtomicU64,
}

impl Recorder {
    /// A fresh, empty recorder sampling `metrics`.
    fn new(metrics: &'static MetricsRegistry) -> Recorder {
        let n = series_names().len();
        Recorder {
            metrics,
            slots: (0..RECORDER_SLOTS).map(|_| Slot::default()).collect(),
            latest: Slot::default(),
            latest_values: (0..n).map(|_| AtomicU64::new(0)).collect(),
            published: AtomicU64::new(0),
            writer: Mutex::new(WriterState {
                prev: None,
                claim: 0,
            }),
            sampler_running: AtomicBool::new(false),
            interval_ms: AtomicU64::new(DEFAULT_INTERVAL_MS),
        }
    }

    /// The process-wide recorder. Creating it does *not* start the
    /// sampler; see [`Recorder::start_sampler`].
    pub fn global() -> &'static Recorder {
        static GLOBAL: OnceLock<Recorder> = OnceLock::new();
        GLOBAL.get_or_init(|| Recorder::new(MetricsRegistry::global()))
    }

    /// Milliseconds between sampler ticks.
    pub fn interval_ms(&self) -> u64 {
        self.interval_ms.load(Ordering::Relaxed)
    }

    /// Whether the background sampler has been started.
    pub fn sampler_running(&self) -> bool {
        self.sampler_running.load(Ordering::Acquire)
    }

    /// Start the background sampler at `interval` (clamped to
    /// [10 ms, 60 s]). Idempotent: the first caller wins, later calls
    /// (and later intervals) are ignored. The thread is detached — it
    /// samples for the life of the process, which is the point.
    pub fn start_sampler(&'static self, interval: Duration) {
        let ms = (interval.as_millis() as u64).clamp(10, 60_000);
        if self
            .sampler_running
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        self.interval_ms.store(ms, Ordering::Relaxed);
        std::thread::Builder::new()
            .name("lidardb-recorder".into())
            .spawn(move || loop {
                self.sample_now();
                std::thread::sleep(Duration::from_millis(
                    self.interval_ms.load(Ordering::Relaxed),
                ));
            })
            .expect("spawn recorder sampler");
    }

    /// Take one sample right now (the sampler's tick; also the
    /// deterministic entry point for tests).
    pub fn sample_now(&self) {
        let values = collect_values(self.metrics);
        let uptime = self.metrics.uptime_ns();
        let mut w = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let claim = w.claim;
        let keyframe = w.prev.is_none() || claim.is_multiple_of(KEYFRAME_EVERY);
        let mut buf = Vec::with_capacity(SLOT_BYTES);
        {
            let zero;
            let base: &[u64] = match (&w.prev, keyframe) {
                (Some(p), false) => p,
                _ => {
                    zero = vec![0u64; values.len()];
                    &zero
                }
            };
            for (v, b) in values.iter().zip(base) {
                put_varint(&mut buf, zigzag(*v as i64 - *b as i64));
            }
        }
        debug_assert!(buf.len() <= SLOT_BYTES, "sample exceeds slot");
        buf.truncate(SLOT_BYTES);

        let slot = &self.slots[(claim % RECORDER_SLOTS as u64) as usize];
        // Seqlock write: odd while inside, 2·claim+2 when stable.
        slot.seq.store(claim * 2 + 1, Ordering::Release);
        slot.sample_seq.store(claim, Ordering::Relaxed);
        slot.uptime_ns.store(uptime, Ordering::Relaxed);
        slot.len.store(
            buf.len() as u64 | if keyframe { FLAG_KEYFRAME } else { 0 },
            Ordering::Relaxed,
        );
        for (i, word) in slot.words.iter().enumerate() {
            let mut bytes = [0u8; 8];
            let at = i * 8;
            if at < buf.len() {
                let n = (buf.len() - at).min(8);
                bytes[..n].copy_from_slice(&buf[at..at + n]);
            } else if at >= buf.len() + 8 {
                break; // rest of the slot is stale; len bounds the read
            }
            word.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
        }
        slot.seq.store(claim * 2 + 2, Ordering::Release);

        // Publish the absolute copy for the scrape path.
        self.latest.seq.store(claim * 2 + 1, Ordering::Release);
        self.latest.sample_seq.store(claim, Ordering::Relaxed);
        self.latest.uptime_ns.store(uptime, Ordering::Relaxed);
        for (cell, v) in self.latest_values.iter().zip(&values) {
            cell.store(*v, Ordering::Relaxed);
        }
        self.latest.seq.store(claim * 2 + 2, Ordering::Release);

        w.prev = Some(values);
        w.claim = claim + 1;
        self.published.store(w.claim, Ordering::Release);
    }

    /// The most recent sample, if any (lock-free; retries while the writer
    /// is mid-publish).
    pub fn latest(&self) -> Option<RecorderSample> {
        loop {
            let s0 = self.latest.seq.load(Ordering::Acquire);
            if s0 == 0 {
                return None;
            }
            if s0 % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let sample = RecorderSample {
                seq: self.latest.sample_seq.load(Ordering::Relaxed),
                uptime_ns: self.latest.uptime_ns.load(Ordering::Relaxed),
                values: self
                    .latest_values
                    .iter()
                    .map(|c| c.load(Ordering::Relaxed))
                    .collect(),
            };
            if self.latest.seq.load(Ordering::Acquire) == s0 {
                return Some(sample);
            }
        }
    }

    /// Decode the retained history, oldest first. Slots the writer lapped
    /// or tore mid-read are skipped; delta samples whose base was lost
    /// with a lapped predecessor are dropped up to the next keyframe, so
    /// at most [`KEYFRAME_EVERY`] − 1 of the *oldest* samples are lost —
    /// never recent ones.
    pub fn snapshot(&self) -> Vec<RecorderSample> {
        let published = self.published.load(Ordering::Acquire);
        let first = published.saturating_sub(RECORDER_SLOTS as u64);
        let mut out = Vec::new();
        let mut base: Option<(u64, Vec<u64>)> = None; // (seq, values)
        for claim in first..published {
            let Some((keyframe, uptime, bytes)) = self.read_slot(claim) else {
                continue;
            };
            let mut pos = 0usize;
            let n = series_names().len();
            let mut values = Vec::with_capacity(n);
            let prev = match (&base, keyframe) {
                (_, true) => None,
                (Some((bseq, bvals)), false) if *bseq + 1 == claim => Some(bvals),
                _ => {
                    // Delta chain broken (predecessor lapped): wait for the
                    // next keyframe.
                    continue;
                }
            };
            let mut ok = true;
            for i in 0..n {
                let Some(raw) = get_varint(&bytes, &mut pos) else {
                    ok = false;
                    break;
                };
                let b = prev.map_or(0, |p: &Vec<u64>| p[i]);
                values.push((b as i64).wrapping_add(unzigzag(raw)) as u64);
            }
            if !ok {
                base = None;
                continue;
            }
            base = Some((claim, values.clone()));
            out.push(RecorderSample {
                seq: claim,
                uptime_ns: uptime,
                values,
            });
        }
        out
    }

    /// Seqlock read of one slot's payload; `None` on tear/lap.
    fn read_slot(&self, claim: u64) -> Option<(bool, u64, Vec<u8>)> {
        let slot = &self.slots[(claim % RECORDER_SLOTS as u64) as usize];
        let want = claim * 2 + 2;
        let s0 = slot.seq.load(Ordering::Acquire);
        if s0 != want {
            return None;
        }
        let uptime = slot.uptime_ns.load(Ordering::Relaxed);
        let len_word = slot.len.load(Ordering::Relaxed);
        let keyframe = len_word & FLAG_KEYFRAME != 0;
        let len = (len_word & !FLAG_KEYFRAME) as usize;
        if len > SLOT_BYTES {
            return None;
        }
        let mut bytes = Vec::with_capacity(len);
        for i in 0..len.div_ceil(8) {
            let word = slot.words[i].load(Ordering::Relaxed).to_le_bytes();
            let take = (len - i * 8).min(8);
            bytes.extend_from_slice(&word[..take]);
        }
        if slot.seq.load(Ordering::Acquire) != want {
            return None; // torn: the writer lapped us mid-read
        }
        Some((keyframe, uptime, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder over a private registry, so counters other tests bump
    /// concurrently never reach its samples.
    fn private() -> (&'static Recorder, &'static MetricsRegistry) {
        let m: &'static MetricsRegistry = Box::leak(Box::default());
        (Box::leak(Box::new(Recorder::new(m))), m)
    }

    #[test]
    fn varint_zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, 300, -300, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            put_varint(&mut buf, zigzag(v));
            let mut pos = 0;
            assert_eq!(unzigzag(get_varint(&buf, &mut pos).unwrap()), v);
            assert_eq!(pos, buf.len());
        }
        // Truncated and over-long inputs decode to None, never panic.
        assert_eq!(get_varint(&[0x80], &mut 0), None);
        assert_eq!(get_varint(&[0xff; 11], &mut 0), None);
    }

    #[test]
    fn samples_round_trip_and_deltas_reconstruct() {
        let (r, m) = private();
        assert!(r.latest().is_none());
        assert!(r.snapshot().is_empty());
        for i in 0..5 {
            m.queries.add(3);
            m.table_rows.set(1000 + i);
            r.sample_now();
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 5);
        for w in snap.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
            assert!(w[1].uptime_ns >= w[0].uptime_ns);
            // The counter moved by exactly +3 between samples.
            assert_eq!(
                w[1].value("queries").unwrap(),
                w[0].value("queries").unwrap() + 3
            );
        }
        let last = r.latest().unwrap();
        assert_eq!(last.seq, 4);
        assert_eq!(&last.values, &snap.last().unwrap().values);
        assert_eq!(last.value("table_rows"), Some(1004));
        assert_eq!(last.value("no_such_series"), None);
    }

    #[test]
    fn ring_laps_and_keyframes_resync() {
        let (r, m) = private();
        let total = RECORDER_SLOTS as u64 + 3 * KEYFRAME_EVERY;
        for _ in 0..total {
            m.queries.inc();
            r.sample_now();
        }
        let snap = r.snapshot();
        // The ring holds at most RECORDER_SLOTS samples; after a lap the
        // oldest retained delta chain starts at a keyframe, so at most
        // KEYFRAME_EVERY-1 of the oldest slots are undecodable.
        assert!(snap.len() <= RECORDER_SLOTS);
        assert!(snap.len() >= RECORDER_SLOTS - KEYFRAME_EVERY as usize);
        assert_eq!(snap.last().unwrap().seq, total - 1);
        for w in snap.windows(2) {
            assert_eq!(
                w[1].value("queries").unwrap() - w[0].value("queries").unwrap(),
                1,
                "delta reconstruction across the lap"
            );
        }
    }

    #[test]
    fn concurrent_readers_never_see_torn_samples() {
        let (r, m) = private();
        let readers: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        for s in r.snapshot() {
                            assert_eq!(s.values.len(), series_names().len());
                        }
                        let _ = r.latest();
                    }
                })
            })
            .collect();
        for _ in 0..2000 {
            m.queries.inc();
            r.sample_now();
        }
        for h in readers {
            h.join().unwrap();
        }
    }

    #[test]
    fn series_cover_counters_and_gauges() {
        let names = series_names();
        let m = MetricsRegistry::global();
        assert_eq!(
            names.len(),
            m.counter_values().len() + m.gauge_values().len()
        );
        for key in [
            "queries",
            "wal_backlog_rows",
            "admission_queued",
            "open_connections",
        ] {
            assert!(names.contains(&key), "{key} missing from recorder series");
        }
    }
}
