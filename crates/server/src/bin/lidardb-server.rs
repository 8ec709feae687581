//! `lidardb-server` — serve a catalog over TCP.
//!
//! ```text
//! lidardb-server [--listen ADDR]            bind address (default 127.0.0.1:5433)
//!                [--metrics ADDR]           Prometheus /metrics + /healthz listener (default 127.0.0.1:9433; "off" disables)
//!                [--synthetic N]            in-memory grid cloud with N points as table `points`
//!                [--open DIR]               open a saved cloud directory as table `points`
//!                [--ingest DIR]             open DIR for streaming ingest (GroupCommit) as table `stream`
//!                [--admit IN_FLIGHT,QUEUE]  admission control for `points`
//!                [--deadline MS]            default statement deadline for `points`
//!                [--batch-rows N]           rows per result batch frame
//!                [--drain-ms MS]            graceful-drain deadline on SIGTERM/SIGINT (default 5000)
//! ```
//!
//! SIGTERM and SIGINT both trigger a graceful drain: the server stops
//! taking new sessions (late connections get a typed `ShuttingDown`
//! frame), lets in-flight statements run up to `--drain-ms`, cancels the
//! stragglers, force-fsyncs every streaming table's WAL group, and exits
//! 0. A second signal during the drain is ignored — the drain already
//! owns teardown.

use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread;
use std::time::Duration;

use lidardb_core::{AdmissionController, Durability, PointCloud};
use lidardb_server::Server;
use lidardb_sql::Catalog;

fn die(msg: &str) -> ! {
    eprintln!("lidardb-server: {msg}");
    exit(2);
}

/// Set by the signal handler, polled by main. No allocation, no locks —
/// everything async-signal-safe happens here; the drain itself runs on
/// the main thread.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::Release);
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

// signal(2), bound directly — the toolchain image carries no libc crate,
// and two handler installs do not justify vendoring one.
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

fn install_signal_handlers() {
    // SAFETY: `signal` is the C library's, declared with its C signature;
    // `on_signal` is an `extern "C" fn(i32)` that only stores to an atomic,
    // which is async-signal-safe.
    unsafe {
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
    }
}

/// Deterministic grid cloud: x,y on a √N×√N grid, z = x/10,
/// classification cycles 0..12, intensity cycles 0..4096.
fn synthetic(n: usize) -> PointCloud {
    let side = (n as f64).sqrt().ceil() as usize;
    let mut pc = PointCloud::new();
    let mut batch = Vec::with_capacity(65_536);
    for i in 0..n {
        batch.push(lidardb_las::PointRecord {
            x: (i % side) as f64,
            y: (i / side) as f64,
            z: ((i % side) as f64) / 10.0,
            classification: (i % 12) as u8,
            intensity: (i % 4096) as u16,
            ..Default::default()
        });
        if batch.len() == batch.capacity() {
            pc.append_records(&batch)
                .unwrap_or_else(|e| die(&e.to_string()));
            batch.clear();
        }
    }
    if !batch.is_empty() {
        pc.append_records(&batch)
            .unwrap_or_else(|e| die(&e.to_string()));
    }
    pc
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut listen = "127.0.0.1:5433".to_string();
    let mut metrics = "127.0.0.1:9433".to_string();
    let mut n_synth: Option<usize> = None;
    let mut open_dir: Option<String> = None;
    let mut ingest_dir: Option<String> = None;
    let mut admit: Option<(usize, usize)> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut batch_rows: Option<usize> = None;
    let mut drain_ms: u64 = 5000;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| die(&format!("{a} needs a value")))
                .clone()
        };
        match a.as_str() {
            "--listen" => listen = val(),
            "--metrics" => metrics = val(),
            "--synthetic" => {
                n_synth = Some(val().parse().unwrap_or_else(|_| die("bad --synthetic")))
            }
            "--open" => open_dir = Some(val()),
            "--ingest" => ingest_dir = Some(val()),
            "--admit" => {
                let v = val();
                let (a, b) = v
                    .split_once(',')
                    .unwrap_or_else(|| die("--admit wants IN_FLIGHT,QUEUE"));
                admit = Some((
                    a.parse().unwrap_or_else(|_| die("bad --admit")),
                    b.parse().unwrap_or_else(|_| die("bad --admit")),
                ));
            }
            "--deadline" => {
                deadline_ms = Some(val().parse().unwrap_or_else(|_| die("bad --deadline")))
            }
            "--batch-rows" => {
                batch_rows = Some(val().parse().unwrap_or_else(|_| die("bad --batch-rows")))
            }
            "--drain-ms" => drain_ms = val().parse().unwrap_or_else(|_| die("bad --drain-ms")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: lidardb-server [--listen ADDR] [--metrics ADDR|off] \
                     [--synthetic N] [--open DIR] [--ingest DIR] [--admit IN_FLIGHT,QUEUE] \
                     [--deadline MS] [--batch-rows N] [--drain-ms MS]"
                );
                return;
            }
            other => die(&format!("unknown flag {other}")),
        }
    }

    let mut catalog = Catalog::new();
    let mut points: Option<PointCloud> = None;
    if let Some(n) = n_synth {
        points = Some(synthetic(n));
    }
    if let Some(dir) = open_dir {
        if points.is_some() {
            die("--synthetic and --open are mutually exclusive");
        }
        points = Some(PointCloud::open_dir(&dir).unwrap_or_else(|e| die(&e.to_string())));
    }
    if let Some(mut pc) = points {
        if let Some((in_flight, queue)) = admit {
            pc.set_admission(Arc::new(AdmissionController::new(in_flight, queue)));
        }
        if let Some(ms) = deadline_ms {
            pc.set_default_deadline(Some(Duration::from_millis(ms)));
        }
        eprintln!("lidardb-server: table `points`: {} rows", pc.num_points());
        catalog.register_pointcloud("points", Arc::new(pc));
    }
    if let Some(dir) = ingest_dir {
        let pc = PointCloud::open_ingest(
            &dir,
            Durability::GroupCommit {
                max_batches: 32,
                max_delay: Duration::from_millis(50),
            },
        )
        .unwrap_or_else(|e| die(&e.to_string()));
        eprintln!(
            "lidardb-server: table `stream`: {} rows (ingest at {dir})",
            pc.num_points()
        );
        catalog.register_stream("stream", Arc::new(RwLock::new(pc)));
    }
    if catalog.table_names().is_empty() {
        die("no tables: pass --synthetic, --open, or --ingest");
    }

    let mut server = Server::bind(&listen, catalog)
        .unwrap_or_else(|e| die(&e.to_string()))
        .with_drain_deadline(Duration::from_millis(drain_ms));
    if let Some(rows) = batch_rows {
        server = server.with_batch_rows(rows);
    }
    if metrics != "off" {
        server = server
            .with_metrics_addr(&metrics)
            .unwrap_or_else(|e| die(&e.to_string()));
        if let Some(addr) = server.metrics_addr() {
            eprintln!("lidardb-server: /metrics and /healthz on http://{addr}");
        }
    }
    eprintln!(
        "lidardb-server: listening on {}",
        server.local_addr().map_or(listen, |a| a.to_string())
    );

    // Serve on a background thread; main parks watching for SIGTERM/SIGINT
    // so a signal turns into a typed drain instead of a process kill.
    install_signal_handlers();
    let handle = server.spawn().unwrap_or_else(|e| die(&e.to_string()));
    while !SHUTDOWN.load(Ordering::Acquire) {
        thread::sleep(Duration::from_millis(100));
    }
    eprintln!("lidardb-server: draining (deadline {drain_ms}ms)");
    handle.shutdown();
    eprintln!("lidardb-server: drained, bye");
}
