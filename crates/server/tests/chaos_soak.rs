//! Network-chaos soak: the fault-domain layers compose into exactly-once
//! ingestion. Retrying clients push idempotent `INSERT` batches through a
//! seeded [`ChaosProxy`] (delays, severed legs, black holes) at a
//! streaming server that is drained and restarted mid-traffic, with a
//! disk-full window injected into the WAL along the way. Every *acked*
//! batch must be present exactly once — whole — in the final table, and
//! no batch, acked or not, may appear twice.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use lidardb_core::{Durability, FaultInjector, FaultKind, FaultStage, PointCloud};
use lidardb_server::{ChaosProxy, Client, RetryPolicy, RetryingClient, Server};
use lidardb_sql::{Catalog, SqlValue};
use lidardb_test_support::ScratchDir;

const CLIENTS: usize = 2;
const BATCHES: usize = 12;
const CYCLES: usize = 3;
const ROWS_PER_BATCH: i64 = 2;

/// Batch identity rides in x; y distinguishes the rows, so a
/// double-applied batch is visible as count > ROWS_PER_BATCH.
fn batch_id(client: usize, seq: usize) -> usize {
    client * 100_000 + seq
}

#[test]
fn acked_inserts_land_exactly_once_through_chaos_drains_and_a_full_disk() {
    let dir = ScratchDir::vacant("chaos_soak");
    let fi = Arc::new(FaultInjector::new());

    // One server incarnation: reopen the same ingest directory (WAL
    // replay restores both the rows and the idempotency ledger, so
    // replays of pre-restart acks still deduplicate) behind a fresh
    // ephemeral port.
    let serve = || {
        let mut pc = PointCloud::open_ingest(
            &dir,
            Durability::GroupCommit {
                max_batches: 8,
                max_delay: Duration::from_millis(20),
            },
        )
        .unwrap();
        pc.set_fault_injector(Arc::clone(&fi));
        let mut catalog = Catalog::new();
        catalog.register_stream("stream", Arc::new(RwLock::new(pc)));
        Server::bind("127.0.0.1:0", catalog)
            .unwrap()
            .with_drain_deadline(Duration::from_millis(1000))
            .spawn()
            .unwrap()
    };

    // Behind an Option so the orchestrator can consume one incarnation and
    // slot in the next.
    let mut server = Some(serve());
    let proxy = ChaosProxy::spawn(server.as_ref().unwrap().addr(), 0xE15_5EED).unwrap();
    let total = CLIENTS * BATCHES;
    // Attempts completed (acked or given up) — paces the drain cycles so
    // traffic brackets every restart.
    let progress = AtomicUsize::new(0);
    let mut drains = 0usize;
    let mut acked: Vec<usize> = Vec::new();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, progress) = (proxy.addr(), &progress);
                s.spawn(move || {
                    let mut rc = RetryingClient::new(
                        addr,
                        RetryPolicy {
                            io_timeout: Duration::from_millis(800),
                            deadline: Duration::from_secs(30),
                            seed: 0xE15 + c as u64,
                            ..RetryPolicy::default()
                        },
                    );
                    let mut acked = Vec::new();
                    for seq in 0..BATCHES {
                        let id = batch_id(c, seq);
                        let sql = format!(
                            "INSERT INTO stream (x, y, z) VALUES ({id}, 0, 1), ({id}, 1, 2)"
                        );
                        // Refused batches (disk-full window, drain
                        // cancellations past the client deadline) are not
                        // acked — the invariant owes them nothing.
                        if rc.insert(&sql).is_ok() {
                            acked.push(id);
                        }
                        progress.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    acked
                })
            })
            .collect();

        // The orchestrator: wait for a slice of the traffic, then yank the
        // server out from under it. Cycle 2 additionally poisons the WAL
        // with ENOSPC just before the drain, so the restart also exercises
        // recovery out of degraded read-only mode.
        for cycle in 1..=CYCLES {
            let target = total * cycle / (CYCLES + 1);
            let t0 = Instant::now();
            while progress.load(Ordering::Relaxed) < target
                && t0.elapsed() < Duration::from_secs(60)
            {
                std::thread::sleep(Duration::from_millis(20));
            }
            if cycle == 2 {
                fi.inject_n(
                    FaultStage::WalAppend,
                    None,
                    FaultKind::DiskFull,
                    0,
                    1_000_000,
                );
                std::thread::sleep(Duration::from_millis(150));
                fi.clear();
            }
            server.take().unwrap().shutdown();
            let fresh = serve();
            proxy.retarget(fresh.addr());
            server = Some(fresh);
            drains += 1;
        }
        for h in handles {
            acked.extend(h.join().expect("client thread panicked"));
        }
    });
    proxy.shutdown();

    // Verification goes straight at the surviving server — no proxy, no
    // retries — one batch at a time.
    let server = server.take().unwrap();
    let mut check = Client::connect(server.addr()).unwrap();
    let (mut lost, mut duplicates) = (Vec::new(), Vec::new());
    for id in (0..CLIENTS).flat_map(|c| (0..BATCHES).map(move |seq| batch_id(c, seq))) {
        let (_, rows, _) = check
            .query_collect(&format!("SELECT COUNT(*) FROM stream WHERE x = {id}"))
            .unwrap();
        let n = match &rows[0][0] {
            SqlValue::Int(n) => *n,
            other => panic!("COUNT(*) did not return an Int: {other:?}"),
        };
        // An acked batch must be present *whole* — a torn apply (1 of 2
        // rows) is as lost as an absent one.
        if acked.contains(&id) && n < ROWS_PER_BATCH {
            lost.push(id);
        }
        if n > ROWS_PER_BATCH {
            duplicates.push(id);
        }
    }
    drop(check);
    server.shutdown();

    assert!(!acked.is_empty(), "the soak never landed an insert");
    assert!(
        lost.is_empty(),
        "acked batches missing or torn in the final table: {lost:?}"
    );
    assert!(
        duplicates.is_empty(),
        "batches applied more than once: {duplicates:?}"
    );
    assert_eq!(drains, CYCLES, "every drain/restart cycle must run");
}
