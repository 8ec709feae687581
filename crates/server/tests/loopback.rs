//! Loopback integration: a real server on 127.0.0.1, real clients, the
//! full governor in between.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, RwLock};
use std::time::Duration;

use lidardb_core::{
    AdmissionController, Durability, FaultInjector, FaultKind, FaultStage, PointCloud,
};
use lidardb_las::PointRecord;
use lidardb_server::protocol::{self, Message};
use lidardb_server::{Client, ClientError, ProtoError, Server, ServerHandle};
use lidardb_sql::{Catalog, SqlValue};

/// `n`-point grid cloud: x = i % side, y = i / side, classification
/// cycles 0..12.
fn grid_cloud(n: usize) -> PointCloud {
    let side = (n as f64).sqrt().ceil() as usize;
    let mut pc = PointCloud::new();
    let recs: Vec<PointRecord> = (0..n)
        .map(|i| PointRecord {
            x: (i % side) as f64,
            y: (i / side) as f64,
            z: ((i % side) as f64) / 10.0,
            classification: (i % 12) as u8,
            intensity: (i % 4096) as u16,
            ..Default::default()
        })
        .collect();
    pc.append_records(&recs).unwrap();
    pc
}

fn serve(catalog: Catalog, batch_rows: usize) -> ServerHandle {
    Server::bind("127.0.0.1:0", catalog)
        .unwrap()
        .with_batch_rows(batch_rows)
        .spawn()
        .unwrap()
}

fn points_catalog(pc: PointCloud) -> Catalog {
    let mut c = Catalog::new();
    c.register_pointcloud("points", Arc::new(pc));
    c
}

#[test]
fn select_matches_embedded_execution() {
    let pc = grid_cloud(10_000);
    let catalog = points_catalog(pc);
    let sql = "SELECT x, y, z FROM points WHERE classification = 3 AND x < 50";
    let expected = lidardb_sql::query(&catalog, sql).unwrap();

    let server = serve(catalog, 128);
    let mut client = Client::connect(server.addr()).unwrap();
    let (columns, rows, stats) = client.query_collect(sql).unwrap();

    assert_eq!(columns, expected.columns);
    assert_eq!(rows, expected.rows);
    assert_eq!(stats.rows as usize, expected.rows.len());
    server.shutdown();
}

#[test]
fn large_selection_streams_in_bounded_batches() {
    let catalog = points_catalog(grid_cloud(50_000));
    let server = serve(catalog, 512);
    let mut client = Client::connect(server.addr()).unwrap();

    let mut batch_sizes = Vec::new();
    let mut total = 0usize;
    let stats = client
        .query_streamed(
            "SELECT x, y FROM points",
            |cols| assert_eq!(cols, ["x", "y"]),
            |batch| {
                batch_sizes.push(batch.len());
                total += batch.len();
            },
        )
        .unwrap();
    assert_eq!(total, 50_000);
    assert_eq!(stats.rows as usize, total);
    assert!(batch_sizes.len() > 50, "many bounded batches, got {}", batch_sizes.len());
    assert!(batch_sizes.iter().all(|&b| b <= 512), "batch cap respected");
    assert_eq!(stats.batches as usize, batch_sizes.len());
    server.shutdown();
}

#[test]
fn session_knobs_are_per_connection() {
    let mut pc = grid_cloud(200_000);
    // Stall every checkpoint 40 ms so a 1 ms statement deadline trips.
    let fi = Arc::new(FaultInjector::new());
    fi.inject_n(FaultStage::QueryCheckpoint, None, FaultKind::Stall(40), 0, 1000);
    pc.set_fault_injector(fi);
    let catalog = points_catalog(pc);
    let server = serve(catalog, 4096);

    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();

    // Session A sets a 1 ms deadline; its governed scan dies.
    a.query_collect("SET STATEMENT_TIMEOUT = 1").unwrap();
    let sql = "SELECT COUNT(*) FROM points WHERE \
               ST_Contains(ST_MakeEnvelope(0, 0, 400, 400), ST_Point(x, y))";
    match a.query_collect(sql) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("cancelled"), "deadline error, got: {msg}")
        }
        other => panic!("expected deadline cancellation, got {other:?}"),
    }
    // The session survives its statement failing.
    let (_, rows, _) = a.query_collect("SELECT COUNT(*) FROM points").unwrap();
    assert!(matches!(rows[0][0], SqlValue::Int(_)));

    // Session B never set a timeout: the same query succeeds (the stalls
    // only cost time).
    // 448-wide grid: x,y both in 0..=400 inside the envelope → 401².
    let (_, rows, _) = b.query_collect(sql).unwrap();
    assert_eq!(rows[0][0], SqlValue::Int(160_801));
    server.shutdown();
}

#[test]
fn kill_from_another_connection_aborts_a_stream() {
    let catalog = points_catalog(grid_cloud(500_000));
    let server = serve(catalog, 1024);

    // Session A starts a big stream but reads nothing yet: the server
    // fills the socket buffers and blocks mid-stream, holding its
    // admission slot and registry ticket.
    let mut a = Client::connect(server.addr()).unwrap();
    let addr = server.addr();
    let killer = std::thread::spawn(move || {
        let mut b = Client::connect(addr).unwrap();
        // Wait for A's statement to appear in the registry.
        let id = loop {
            let (_, rows, _) = b.query_collect("SHOW QUERIES").unwrap();
            let hit = rows.iter().find(|r| {
                matches!(&r[2], SqlValue::Str(d) if d.contains("stream select points"))
            });
            if let Some(row) = hit {
                let SqlValue::Int(id) = row[0] else { panic!("id column") };
                break id;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let (_, rows, _) = b.query_collect(&format!("KILL {id}")).unwrap();
        assert_eq!(rows[0][0], SqlValue::Str("OK".into()));
    });

    let res = a.query_streamed(
        "SELECT x, y, z FROM points",
        |_| {},
        |_batch| {
            // Read slowly so the statement is still running when the KILL
            // lands.
            std::thread::sleep(Duration::from_millis(1));
        },
    );
    killer.join().unwrap();
    match res {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("cancelled"), "kill surfaces as cancellation: {msg}")
        }
        other => panic!("expected killed stream, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn admission_overload_is_a_typed_error_frame() {
    let mut pc = grid_cloud(200_000);
    let fi = Arc::new(FaultInjector::new());
    // Make every query slow enough to observe overlap.
    fi.inject_n(FaultStage::QueryCheckpoint, None, FaultKind::Stall(100), 0, 1000);
    pc.set_fault_injector(fi);
    // One in-flight slot, no queue: the second concurrent query sheds.
    pc.set_admission(Arc::new(AdmissionController::new(1, 0)));
    let catalog = points_catalog(pc);
    let server = serve(catalog, 4096);
    let addr = server.addr();

    let sql = "SELECT COUNT(*) FROM points WHERE \
               ST_Contains(ST_MakeEnvelope(0, 0, 400, 400), ST_Point(x, y))";
    let slow = std::thread::spawn(move || {
        let mut a = Client::connect(addr).unwrap();
        a.query_collect(sql).unwrap()
    });
    // Give A's query time to take the slot (it then stalls >= 100 ms at
    // its first checkpoint).
    std::thread::sleep(Duration::from_millis(40));
    let mut b = Client::connect(server.addr()).unwrap();
    match b.query_collect(sql) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("overloaded"), "shed error, got: {msg}")
        }
        other => panic!("expected overload shed, got {other:?}"),
    }
    slow.join().unwrap();
    server.shutdown();
}

#[test]
fn insert_and_query_over_the_wire() {
    let dir = std::env::temp_dir().join(format!("lidardb_net_ingest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    let mut catalog = Catalog::new();
    catalog.register_stream("stream", Arc::new(RwLock::new(pc)));
    let server = serve(catalog, 4096);

    let mut c = Client::connect(server.addr()).unwrap();
    let (cols, rows, _) = c
        .query_collect("INSERT INTO stream (x, y, z) VALUES (1, 2, 3), (4, 5, 6)")
        .unwrap();
    assert_eq!(cols, ["inserted", "durable"]);
    assert_eq!(rows[0][0], SqlValue::Int(2));
    let (_, rows, _) = c.query_collect("SELECT COUNT(*) FROM stream").unwrap();
    assert_eq!(rows[0][0], SqlValue::Int(2));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_frame_gets_typed_error_then_close() {
    let catalog = points_catalog(grid_cloud(100));
    let server = serve(catalog, 4096);

    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(&protocol::MAGIC).unwrap();
    let mut hello = [0u8; 8];
    s.read_exact(&mut hello).unwrap();
    assert_eq!(hello, protocol::MAGIC);

    // A frame whose CRC does not match its body.
    let body = Message::Query {
        sql: "SELECT 1".into(),
    }
    .encode();
    let mut frame = Vec::new();
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&0xdead_beefu32.to_le_bytes());
    frame.extend_from_slice(&body);
    s.write_all(&frame).unwrap();

    match protocol::read_frame(&mut s).unwrap().msg {
        Message::Error { message } => {
            assert!(message.contains("crc"), "crc error reported: {message}")
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
    // ... and the server hangs up (framing cannot resynchronise).
    match protocol::read_frame(&mut s) {
        Err(ProtoError::Disconnected) | Err(ProtoError::Io(_)) => {}
        other => panic!("expected closed connection, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn forged_huge_length_is_rejected_without_allocation() {
    let catalog = points_catalog(grid_cloud(100));
    let server = serve(catalog, 4096);

    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(&protocol::MAGIC).unwrap();
    let mut hello = [0u8; 8];
    s.read_exact(&mut hello).unwrap();

    // Declared length u32::MAX: the server must answer with a typed error
    // (not attempt a 4 GiB read).
    s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    s.write_all(&0u32.to_le_bytes()).unwrap();
    match protocol::read_frame(&mut s).unwrap().msg {
        Message::Error { message } => {
            assert!(message.contains("length"), "length error reported: {message}")
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn bad_magic_is_rejected() {
    let catalog = points_catalog(grid_cloud(100));
    let server = serve(catalog, 4096);

    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(b"HTTP/1.1").unwrap();
    // The server may also just close on us; either is a rejection.
    if let Ok(frame) = protocol::read_frame(&mut s) {
        match frame.msg {
            Message::Error { message } => assert!(message.contains("magic")),
            other => panic!("expected Error frame, got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn geometry_values_roundtrip() {
    let catalog = points_catalog(grid_cloud(100));
    let server = serve(catalog, 4096);
    let mut c = Client::connect(server.addr()).unwrap();
    let (_, rows, _) = c
        .query_collect("SELECT ST_Point(x, y) FROM points LIMIT 1")
        .unwrap();
    assert!(
        matches!(&rows[0][0], SqlValue::Geom(_)),
        "geometry survives the wire: {rows:?}"
    );
    server.shutdown();
}

/// A scripted peer on a raw socket: answers the hello, reads one query
/// and replies with `frames` verbatim, whatever they claim.
fn scripted_server(frames: Vec<Message>) -> std::net::SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        protocol::read_magic(&mut s).unwrap();
        protocol::write_magic(&mut s).unwrap();
        protocol::read_frame(&mut s).unwrap();
        for f in &frames {
            protocol::write_frame(&mut s, f).unwrap();
        }
    });
    addr
}

#[test]
fn client_cross_checks_batch_width_and_done_totals() {
    let header = Message::Header {
        columns: vec!["a".into(), "b".into()],
    };
    let rows = |n: usize| Message::Batch {
        rows: vec![vec![SqlValue::Int(1), SqlValue::Int(2)]; n],
    };
    let done = |rows, batches| Message::Done {
        rows,
        batches,
        elapsed_us: 0,
    };
    let narrow = Message::Batch {
        rows: vec![vec![SqlValue::Int(1)]],
    };
    for (frames, want) in [
        (vec![header.clone(), narrow, done(1, 1)], "batch width"),
        (vec![header.clone(), rows(2), done(5, 1)], "done row count"),
        (vec![header.clone(), rows(2), done(2, 3)], "done batch count"),
    ] {
        let mut c = Client::connect(scripted_server(frames)).unwrap();
        match c.query_collect("SELECT a, b FROM t") {
            Err(ClientError::Proto(e)) => assert!(e.to_string().contains(want), "{want}: {e}"),
            other => panic!("{want}: expected a typed protocol error, got {other:?}"),
        }
    }
    // The honest script passes.
    let mut c = Client::connect(scripted_server(vec![header, rows(2), done(2, 1)])).unwrap();
    let (_, got, stats) = c.query_collect("SELECT a, b FROM t").unwrap();
    assert_eq!((got.len(), stats.rows, stats.batches), (2, 2, 1));
}
