//! Fault-domain integration: graceful drain, typed refusals, deadline
//! cancellation, drain-aware health, and the retrying client's idempotent
//! replay through a scripted chaos proxy — all on real sockets.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use lidardb_core::{Durability, FaultInjector, FaultKind, FaultStage, PointCloud};
use lidardb_las::PointRecord;
use lidardb_server::{
    ChaosProxy, ChaosScript, Client, ClientError, RetryPolicy, RetryingClient, Server,
};
use lidardb_sql::{Catalog, SqlValue};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tdir() -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("lidardb_drain_{}_{case}", std::process::id()));
    clear(&d);
    d
}

/// Remove a table directory together with its sibling WAL
/// (`wal::wal_path_for`): a log left behind would be replayed into the
/// next table a recycled pid opens at the same path.
fn clear(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_file(lidardb_core::wal::wal_path_for(dir));
}

fn grid_cloud(n: usize) -> PointCloud {
    let side = (n as f64).sqrt().ceil() as usize;
    let mut pc = PointCloud::new();
    let recs: Vec<PointRecord> = (0..n)
        .map(|i| PointRecord {
            x: (i % side) as f64,
            y: (i / side) as f64,
            z: ((i % side) as f64) / 10.0,
            classification: (i % 12) as u8,
            ..Default::default()
        })
        .collect();
    pc.append_records(&recs).unwrap();
    pc
}

fn points_catalog(pc: PointCloud) -> Catalog {
    let mut c = Catalog::new();
    c.register_pointcloud("points", Arc::new(pc));
    c
}

fn stream_catalog(dir: &std::path::Path) -> Catalog {
    let pc = PointCloud::open_ingest(
        dir,
        Durability::GroupCommit {
            max_batches: 8,
            max_delay: Duration::from_millis(20),
        },
    )
    .unwrap();
    let mut c = Catalog::new();
    c.register_stream("stream", Arc::new(RwLock::new(pc)));
    c
}

/// Minimal HTTP/1.0 GET against the metrics listener: (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(s, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut text = String::new();
    s.read_to_string(&mut text).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((text.as_str(), ""));
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

#[test]
fn idle_session_gets_a_typed_shutting_down_frame() {
    let server = Server::bind("127.0.0.1:0", points_catalog(grid_cloud(100)))
        .unwrap()
        .with_drain_deadline(Duration::from_millis(1500))
        .spawn()
        .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let (_, rows, _) = client.query_collect("SELECT COUNT(*) FROM points").unwrap();
    assert_eq!(rows[0][0], SqlValue::Int(100));

    // Drain with the session parked between statements. shutdown() only
    // returns once every session closed, so the goodbye frame is already
    // buffered on our socket.
    server.shutdown();
    let err = client.query_collect("SELECT COUNT(*) FROM points").unwrap_err();
    match &err {
        ClientError::ShuttingDown { drain_ms } => assert_eq!(*drain_ms, 1500),
        other => panic!("expected typed ShuttingDown, got {other:?}"),
    }
    assert!(err.is_transient(), "a drain goodbye invites a retry");
}

#[test]
fn drain_refuses_new_connections_typed_and_healthz_says_503() {
    // A table whose first query stalls 900ms at its first checkpoint —
    // the statement that holds the drain open while we probe it.
    let mut pc = grid_cloud(10_000);
    let fi = Arc::new(FaultInjector::new());
    fi.inject(FaultStage::QueryCheckpoint, None, FaultKind::Stall(900));
    pc.set_fault_injector(Arc::clone(&fi));
    let server = Server::bind("127.0.0.1:0", points_catalog(pc))
        .unwrap()
        .with_drain_deadline(Duration::from_secs(10))
        .with_metrics_addr("127.0.0.1:0")
        .unwrap()
        .spawn()
        .unwrap();
    let addr = server.addr();
    let maddr = server.metrics_addr().unwrap();
    let (ok, _) = {
        let (status, body) = http_get(maddr, "/healthz");
        (status.contains("200"), body)
    };
    assert!(ok, "healthy before the drain");

    // In-flight statement on session A.
    let slow = thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.query_collect("SELECT COUNT(*) FROM points WHERE x >= 0")
    });
    thread::sleep(Duration::from_millis(200)); // statement is running
    let drain = thread::spawn(move || server.shutdown());
    thread::sleep(Duration::from_millis(250)); // drain flag is up, held by A

    // A fresh connection mid-drain: accepted, answered with a typed
    // ShuttingDown after the hello — never a raw reset mid-handshake.
    let mut late = Client::connect(addr).expect("mid-drain connect completes the hello");
    let err = late.query_collect("SELECT COUNT(*) FROM points").unwrap_err();
    assert!(
        matches!(err, ClientError::ShuttingDown { .. }),
        "typed refusal, got {err:?}"
    );

    // The observability plane answers 503 for the whole drain.
    let (status, body) = http_get(maddr, "/healthz");
    assert!(status.contains("503"), "draining => 503, got {status}");
    assert!(body.contains("draining"), "body names the cause: {body}");

    // The in-flight statement finished inside the deadline, untouched.
    let (_, rows, _) = slow.join().unwrap().expect("slow query survives the drain");
    assert_eq!(rows[0][0], SqlValue::Int(10_000));
    drain.join().unwrap();
}

#[test]
fn drain_deadline_cancels_in_flight_statements_with_a_typed_error() {
    let mut pc = grid_cloud(10_000);
    let fi = Arc::new(FaultInjector::new());
    fi.inject(FaultStage::QueryCheckpoint, None, FaultKind::Stall(1200));
    pc.set_fault_injector(Arc::clone(&fi));
    let server = Server::bind("127.0.0.1:0", points_catalog(pc))
        .unwrap()
        .with_drain_deadline(Duration::from_millis(200))
        .spawn()
        .unwrap();
    let addr = server.addr();

    let slow = thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.query_collect("SELECT COUNT(*) FROM points WHERE x >= 0")
    });
    thread::sleep(Duration::from_millis(200)); // statement parked in its stall
    let t0 = Instant::now();
    server.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "drain must not wait out the whole statement"
    );

    // The killed session saw a *typed* Error frame (cancelled statement),
    // not a raw socket reset or silent EOF.
    let err = slow.join().unwrap().expect_err("statement was cancelled");
    match &err {
        ClientError::Server(m) => {
            assert!(m.contains("cancelled"), "typed cancellation, got: {m}")
        }
        other => panic!("expected a typed server Error frame, got {other:?}"),
    }
}

#[test]
fn drain_flushes_group_commit_wal_before_returning() {
    let dir = tdir();
    let server = Server::bind("127.0.0.1:0", stream_catalog(&dir))
        .unwrap()
        .with_drain_deadline(Duration::from_millis(1500))
        .spawn()
        .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // Group commit (8 batches / 20ms): one batch is acked applied but not
    // necessarily fsynced when the drain starts.
    let (_, rows, _) = client
        .query_collect("INSERT INTO stream (x, y, z) VALUES (1, 2, 3), (4, 5, 6)")
        .unwrap();
    assert_eq!(rows[0][0], SqlValue::Int(2));
    server.shutdown();
    drop(client);

    // Reopen the directory: the drain's forced sync made the rows durable.
    let pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    assert_eq!(pc.num_points(), 2, "drained rows survive a reopen");
    clear(&dir);
}

#[test]
fn retrying_client_replays_an_ack_lost_insert_exactly_once() {
    let dir = tdir();
    let server = Server::bind("127.0.0.1:0", stream_catalog(&dir))
        .unwrap()
        .spawn()
        .unwrap();
    // Connection 0: the server→client leg dies after 9 bytes — the 8-byte
    // hello plus the first byte of the INSERT's response. The statement
    // executed; its ack is lost. Connection 1 onward: healthy.
    let proxy = ChaosProxy::spawn_scripted(
        server.addr(),
        vec![ChaosScript::DropServerToClientAfter(9)],
    )
    .unwrap();
    let mut rc = RetryingClient::new(
        proxy.addr(),
        RetryPolicy {
            deadline: Duration::from_secs(20),
            seed: 7,
            ..RetryPolicy::default()
        },
    );
    let outcome = rc
        .insert("INSERT INTO stream (x, y, z) VALUES (1, 2, 3), (4, 5, 6);")
        .expect("replay lands");
    assert!(rc.retries() >= 1, "the ack loss was absorbed by a retry");
    assert!(outcome.deduped, "the replay was recognised, not re-applied");
    assert_eq!(outcome.inserted, 0, "dedup applies zero new rows");
    assert!(outcome.durable, "deduped rows are already WAL-durable");

    // Straight to the server (no proxy): exactly one copy of the batch.
    let mut check = Client::connect(server.addr()).unwrap();
    let (_, rows, _) = check.query_collect("SELECT COUNT(*) FROM stream").unwrap();
    assert_eq!(rows[0][0], SqlValue::Int(2), "no lost insert, no double insert");

    proxy.shutdown();
    server.shutdown();
    clear(&dir);
}

#[test]
fn retrying_client_escapes_a_blackholed_connection() {
    let server = Server::bind("127.0.0.1:0", points_catalog(grid_cloud(64)))
        .unwrap()
        .spawn()
        .unwrap();
    // Connection 0 is a black hole (accepts, forwards nothing); only the
    // client's I/O timeout can rescue it. Connection 1 is healthy.
    let proxy = ChaosProxy::spawn_scripted(server.addr(), vec![ChaosScript::Blackhole]).unwrap();
    let mut rc = RetryingClient::new(
        proxy.addr(),
        RetryPolicy {
            io_timeout: Duration::from_millis(300),
            deadline: Duration::from_secs(20),
            seed: 3,
            ..RetryPolicy::default()
        },
    );
    let t0 = Instant::now();
    let (_, rows, _) = rc.query_collect("SELECT COUNT(*) FROM points").unwrap();
    assert_eq!(rows[0][0], SqlValue::Int(64));
    assert!(rc.retries() >= 1, "the blackhole cost at least one retry");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "the timeout rescued the caller promptly"
    );
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn non_transient_statement_errors_are_not_retried() {
    let server = Server::bind("127.0.0.1:0", points_catalog(grid_cloud(16)))
        .unwrap()
        .spawn()
        .unwrap();
    let mut rc = RetryingClient::new(server.addr(), RetryPolicy::default());
    let err = rc.query_collect("SELECT nope FROM nowhere").unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "typed SQL failure");
    assert!(!err.is_transient());
    assert_eq!(rc.retries(), 0, "deterministic failures burn no retries");
    server.shutdown();
}
