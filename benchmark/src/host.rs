//! What the benchmark asks of the host: two calibration kernels, the
//! process's own CPU time, resident memory and heap, and scratch space
//! that cleans up after itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// Sequential read bandwidth in GB/s: sums a 64 MiB buffer (far larger
/// than any cache here) for about 50 ms. The ceiling the scan numbers are
/// compared against, and a tell-tale for a disturbed run.
pub fn mem_stream_gbps() -> f64 {
    let buf = vec![1u64; 8 << 20];
    let mut acc = 0u64;
    let mut bytes = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_millis() < 50 {
        acc = acc.wrapping_add(
            black_box(&buf)
                .iter()
                .copied()
                .fold(0u64, u64::wrapping_add),
        );
        bytes += (buf.len() * 8) as u64;
    }
    black_box(acc);
    bytes as f64 / t0.elapsed().as_secs_f64() / 1e9
}

/// Milliseconds for a fixed dependent integer chain that lives in
/// registers and L1 (about 50 ms on this class of host): moves only when
/// the core itself is slowed or shared.
pub fn spin_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..40_000_000u32 {
        x = x.rotate_left(5) ^ x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU nanoseconds this process has used, summed over its live threads
/// (`schedstat` is nanosecond-exact where `stat` counts 10 ms ticks; the
/// thread set is fixed while a pass runs, so pass deltas are exact).
pub fn cpu_ns() -> u64 {
    let mut total = 0u64;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(s) = std::fs::read_to_string(task.path().join("schedstat")) {
                total += s
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
    }
    total
}

fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

/// Restart the `VmHWM` high-water mark at the current resident set, so
/// the peak that is reported belongs to the phase that follows. Where the
/// kernel refuses, the peak simply includes what came before.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Bytes the allocator has handed out and not got back, all arenas and
/// mapped blocks together (`mallinfo2`). 0 where there is no glibc.
pub fn heap_in_use_bytes() -> u64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        #[repr(C)]
        struct Mallinfo2 {
            arena: usize,
            ordblks: usize,
            smblks: usize,
            hblks: usize,
            hblkhd: usize,
            usmblks: usize,
            fsmblks: usize,
            uordblks: usize,
            fordblks: usize,
            keepcost: usize,
        }
        extern "C" {
            fn mallinfo2() -> Mallinfo2;
        }
        // SAFETY: `mallinfo2` takes no arguments, locks each arena while it
        // reads it, and returns its ten counters by value in this layout
        // (glibc 2.33 and later).
        let info = unsafe { mallinfo2() };
        (info.uordblks + info.hblkhd) as u64
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    0
}

/// The process's allocator, with a switch: while counting is on it keeps
/// the net bytes requested since `start` and their peak. Off, it costs one
/// relaxed load per call, so the timed passes run on the plain allocator;
/// counting every call all the time cost 11 % of `nav_flat`'s throughput.
/// Resident memory cannot be gated here: what glibc retains after the
/// multi-threaded bulk load put the serving peak of identical runs at
/// 354 or 393 MB on `nav_flat` and anywhere in 80-122 MB on `nav_tiled`.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static NET_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

fn count(delta: i64) {
    if COUNTING.load(Ordering::Relaxed) {
        let net = NET_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK_BYTES.fetch_max(net, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never touch the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        count(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            count(new_size as i64 - layout.size() as i64);
        }
        q
    }
}

/// Peak of the heap in MB while `f` runs: what was in use when it started
/// plus the highest net growth any moment of it reached.
pub fn peak_heap_mb<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let base = heap_in_use_bytes() as i64;
    NET_BYTES.store(0, Ordering::Relaxed);
    PEAK_BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    let peak = base + PEAK_BYTES.load(Ordering::Relaxed);
    (out, peak as f64 / (1u64 << 20) as f64)
}

/// Bytes of every regular file under `path`.
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::symlink_metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    std::fs::read_dir(path).map_or(0, |entries| {
        entries.flatten().map(|e| dir_bytes(&e.path())).sum()
    })
}

/// Everything the benchmark writes goes under this directory of the
/// working directory (the checkout), never under `/tmp`.
pub const SCRATCH_ROOT: &str = ".bench_scratch";

static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A scratch path unique to this process and call (pid + counter), removed
/// on drop together with the sibling `<path>.wal` an ingest table keeps
/// next to its directory.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(label: &str) -> Scratch {
        let n = SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(SCRATCH_ROOT).join(format!("{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(SCRATCH_ROOT).expect("create scratch root");
        Scratch(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    pub fn wal_path(&self) -> PathBuf {
        lidardb_core::wal::wal_path_for(&self.0)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_file(self.wal_path());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_paths_are_unique_and_cleaned_with_their_wal() {
        let (dir, wal) = {
            let a = Scratch::new("t");
            let b = Scratch::new("t");
            assert_ne!(a.path(), b.path());
            std::fs::create_dir_all(a.path()).unwrap();
            std::fs::write(a.path().join("f"), b"12345").unwrap();
            std::fs::write(a.wal_path(), b"123").unwrap();
            assert_eq!(dir_bytes(a.path()), 5);
            (a.path().to_path_buf(), a.wal_path())
        };
        assert!(!dir.exists() && !wal.exists());
    }

    #[test]
    fn heap_peak_counts_what_is_live_at_once() {
        // The counters are process-wide: not while a whole benchmark runs.
        let _alone = crate::layers::WHOLE_RUN
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        const MB: usize = 1 << 20;
        let (kept, peak) = peak_heap_mb(|| {
            drop(black_box(vec![1u8; 64 * MB]));
            black_box(vec![1u8; 24 * MB])
        });
        let (_, later) = peak_heap_mb(|| ());
        // 64 MB at the peak, 24 MB of them still live afterwards; the small
        // tests that run beside this one allocate a few MB at most.
        assert!(
            (peak - later - 40.0).abs() < 8.0,
            "{peak} MB, then {later} MB"
        );
        drop(kept);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let c0 = cpu_ns();
        let ms = spin_ms();
        assert!(ms > 0.0);
        assert!(cpu_ns() > c0);
        assert!(peak_rss_mb() > 0.0);
    }
}
