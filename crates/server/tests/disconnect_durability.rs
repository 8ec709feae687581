//! The disconnect-durability bugfix: a connection that drops inside a
//! `GroupCommit` window must not strand its acknowledged-visible rows in
//! an unsynced WAL group. Session teardown force-flushes the group, so
//! the rows are durable the moment the socket closes — even if no other
//! traffic ever arrives to trigger the group sync.

use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use lidardb_core::{Durability, FaultInjector, FaultKind, FaultStage, PointCloud};
use lidardb_server::{Client, ClientError, Server, ServerHandle};
use lidardb_sql::{Catalog, SqlValue};
use lidardb_test_support::ScratchDir;

/// A group-commit policy that will never sync on its own within the
/// test's lifetime: durability only arrives via an explicit flush.
const LAZY: Durability = Durability::GroupCommit {
    max_batches: 1_000_000,
    max_delay: Duration::from_secs(3600),
};

fn serve_stream(pc: Arc<RwLock<PointCloud>>) -> ServerHandle {
    let mut catalog = Catalog::new();
    catalog.register_stream("stream", pc);
    Server::bind("127.0.0.1:0", catalog)
        .unwrap()
        .spawn()
        .unwrap()
}

fn wait_durable(pc: &Arc<RwLock<PointCloud>>, rows: usize) {
    let t0 = Instant::now();
    loop {
        let durable = pc
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .durable_rows();
        if durable == Some(rows) {
            return;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "teardown flush never made {rows} rows durable (at {durable:?})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn dropped_connection_flushes_the_group_commit_window() {
    let dir = ScratchDir::vacant("disc_dur_flush");
    let pc = Arc::new(RwLock::new(PointCloud::open_ingest(&dir, LAZY).unwrap()));
    let server = serve_stream(Arc::clone(&pc));

    {
        let mut c = Client::connect(server.addr()).unwrap();
        let (_, rows, _) = c
            .query_collect("INSERT INTO stream (x, y, z) VALUES (1, 1, 1), (2, 2, 2), (3, 3, 3)")
            .unwrap();
        assert_eq!(rows[0][0], SqlValue::Int(3));
        // The vulnerable window this bugfix is about: the server ack'd the
        // insert while the WAL group is still unsynced.
        assert_eq!(rows[0][1], SqlValue::Int(0), "insert ack is durable=0");
        assert_eq!(
            pc.read().unwrap().durable_rows(),
            Some(0),
            "rows sit in the open group-commit window"
        );
        // Connection drops here — no goodbye, no further traffic.
    }

    // Session teardown must flush the group: the rows become durable
    // without any new traffic. (Without the fix this poll times out.)
    wait_durable(&pc, 3);
    assert_eq!(pc.read().unwrap().visible_rows(), 3);

    // Crash-and-recover: a fresh open of the directory replays the WAL.
    server.shutdown();
    let recovered = PointCloud::open_ingest(&dir, LAZY).unwrap();
    assert_eq!(recovered.num_points(), 3, "flushed rows survive recovery");
}

#[test]
fn torn_wal_tail_from_dying_session_recovers_to_flushed_prefix() {
    let dir = ScratchDir::vacant("disc_dur_torn");
    let fi = Arc::new(FaultInjector::new());
    let pc = Arc::new(RwLock::new(
        PointCloud::open_ingest_with_faults(&dir, LAZY, Some(Arc::clone(&fi))).unwrap(),
    ));
    let server = serve_stream(Arc::clone(&pc));

    {
        let mut c = Client::connect(server.addr()).unwrap();
        let (_, rows, _) = c
            .query_collect("INSERT INTO stream (x, y, z) VALUES (1, 1, 1), (2, 2, 2), (3, 3, 3)")
            .unwrap();
        assert_eq!(rows[0][0], SqlValue::Int(3));

        // The next WAL append dies mid-write, leaving a damaged frame on
        // disk — the power-cut shape a checksummed WAL must truncate.
        fi.inject(
            FaultStage::WalAppend,
            Some("frame:1"),
            FaultKind::TornWrite(0x5eed),
        );
        match c.query_collect("INSERT INTO stream (x, y, z) VALUES (9, 9, 9), (8, 8, 8)") {
            Err(ClientError::Server(msg)) => {
                assert!(msg.contains("TornWrite"), "typed ingest failure: {msg}")
            }
            other => panic!("expected torn-write failure, got {other:?}"),
        }
        // Connection drops with a poisoned WAL tail behind it.
    }

    // Teardown still flushes the *intact* group.
    wait_durable(&pc, 3);
    server.shutdown();

    // Recovery replays the flushed prefix and truncates the torn tail —
    // the acked rows survive, the half-written batch is gone, and the
    // report says exactly that.
    let recovered = PointCloud::open_ingest_with_faults(&dir, LAZY, None).unwrap();
    assert_eq!(recovered.num_points(), 3, "flushed prefix survives");
    let rep = recovered.recovery_report().expect("recovery ran");
    assert!(rep.torn_tail, "torn tail detected: {rep:?}");
}
