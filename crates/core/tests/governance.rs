//! Integration tests for query lifecycle governance: admission control,
//! cooperative cancellation, the slow-query log under cancellation storms,
//! and the governor counters in the metrics snapshot.
//!
//! These tests share the process-global slow-query log and tracer, so the
//! ones that clear/inspect them serialize on [`SLOW_LOG_LOCK`].

use std::sync::{Arc, Mutex};
use std::time::Duration;

use lidardb_core::{
    trace, AdmissionController, AttrRange, CancelToken, CoreError, FaultInjector, FaultKind,
    FaultStage, GovernCtx, MetricsRegistry, Parallelism, PointCloud, PointTable, RefineStrategy,
    Selection, SpatialPredicate, CHECKPOINT_STRIDE,
};
use lidardb_geom::{Geometry, Point, Polygon};
use lidardb_las::PointRecord;

static SLOW_LOG_LOCK: Mutex<()> = Mutex::new(());

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 11
}

fn build_cloud(n: usize, seed: u64) -> PointCloud {
    let mut s = seed | 1;
    let recs: Vec<PointRecord> = (0..n)
        .map(|_| {
            let x = (lcg(&mut s) % 1_000_000) as f64 / 1000.0;
            let y = (lcg(&mut s) % 1_000_000) as f64 / 1000.0;
            PointRecord {
                x,
                y,
                z: (x + y) / 10.0,
                intensity: (lcg(&mut s) % 4096) as u16,
                classification: (lcg(&mut s) % 10) as u8,
                ..Default::default()
            }
        })
        .collect();
    let mut pc = PointCloud::new();
    pc.append_records(&recs).unwrap();
    pc
}

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> SpatialPredicate {
    SpatialPredicate::Within(Geometry::Polygon(
        Polygon::from_exterior(vec![
            Point::new(x0, y0),
            Point::new(x1, y0),
            Point::new(x1, y1),
            Point::new(x0, y1),
        ])
        .unwrap(),
    ))
}

/// A select on `pc` through its own admission controller and fault
/// injector, with an explicit deadline and memory budget.
fn select_governed(
    pc: &PointCloud,
    pred: &SpatialPredicate,
    attrs: &[AttrRange],
    parallelism: Parallelism,
    deadline: Option<Duration>,
    budget: Option<u64>,
) -> Result<Selection, CoreError> {
    let table = PointTable::Flat(pc);
    let detail = format!("select within ({} attr filters)", attrs.len());
    let g = table.govern(detail, deadline, budget)?;
    table.select(Some(pred), attrs, RefineStrategy::default(), parallelism, &g.ctx)
}

// ------------------------------------------------------------- admission

#[test]
fn full_admission_queue_sheds_with_overloaded() {
    let mut pc = build_cloud(5_000, 0xA11);
    let ctl = Arc::new(AdmissionController::new(1, 0));
    // Hold the only in-flight slot; with a zero-length queue the next
    // query must be shed immediately, before any scan work happens.
    let _held = ctl.admit(None).expect("first admit takes the slot");
    pc.set_admission(Arc::clone(&ctl));

    let shed_before = MetricsRegistry::global().queries_shed.get();
    let err = pc
        .select_query_with(
            Some(&rect(100.0, 100.0, 900.0, 900.0)),
            &[],
            RefineStrategy::default(),
            Parallelism::Serial,
        )
        .unwrap_err();
    assert!(matches!(err, CoreError::Overloaded), "{err}");
    assert!(err.is_transient(), "overload is retryable: {err}");
    assert!(
        MetricsRegistry::global().queries_shed.get() > shed_before,
        "shed counter must move"
    );

    drop(_held);
    // Slot free again: the same query now runs.
    let sel = pc
        .select_query_with(
            Some(&rect(100.0, 100.0, 900.0, 900.0)),
            &[],
            RefineStrategy::default(),
            Parallelism::Serial,
        )
        .expect("admitted after the permit is released");
    assert!(!sel.rows.is_empty());
}

#[test]
fn queued_query_times_out_when_permit_never_frees() {
    let mut pc = build_cloud(2_000, 0xA12);
    let ctl = Arc::new(AdmissionController::new(1, 4));
    let _held = ctl.admit(None).expect("take the slot");
    pc.set_admission(Arc::clone(&ctl));

    // There is queue room, but the slot never frees: the queue-wait
    // deadline must convert into a typed cancellation, not a hang.
    let err = select_governed(
        &pc,
        &rect(0.0, 0.0, 500.0, 500.0),
        &[],
        Parallelism::Serial,
        Some(Duration::from_millis(20)),
        None,
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Cancelled { .. } | CoreError::Overloaded
        ),
        "queued query must resolve with a typed governance error: {err}"
    );
}

// ------------------------------------------------ metrics & slow-log shape

#[test]
fn metrics_snapshot_exposes_governor_counters() {
    let json = MetricsRegistry::global().snapshot_json();
    for key in [
        "queries_shed",
        "queries_timed_out",
        "queries_killed",
        "budget_trips",
    ] {
        assert!(json.contains(&format!("\"{key}\"")), "missing {key}: {json}");
    }
    assert!(json.contains("\"governor\""), "governor stage block: {json}");
}

#[test]
fn slow_log_stays_bounded_under_concurrent_cancellation_storm() {
    let _guard = SLOW_LOG_LOCK.lock().unwrap();
    trace::SlowQueryLog::global().clear();

    let pc = Arc::new(build_cloud(30_000, 0xB0B));
    let pred = rect(100.0, 100.0, 900.0, 900.0);

    // 100 concurrent queries, every one pre-killed: all must resolve to
    // Cancelled, and the global slow log must stay bounded at K entries.
    let threads: Vec<_> = (0..100)
        .map(|_| {
            let pc = Arc::clone(&pc);
            let pred = pred.clone();
            std::thread::spawn(move || {
                let _g = trace::force_thread();
                let token = CancelToken::with(None, None);
                token.kill();
                let ctx = GovernCtx::new(token, None);
                PointTable::Flat(&pc).select(
                    Some(&pred),
                    &[],
                    RefineStrategy::default(),
                    Parallelism::Serial,
                    &ctx,
                )
            })
        })
        .collect();
    for t in threads {
        let err = t.join().expect("no panics").unwrap_err();
        assert!(matches!(err, CoreError::Cancelled { .. }), "{err}");
    }

    let worst = trace::SlowQueryLog::global().worst();
    assert!(
        worst.len() <= trace::SLOW_LOG_K,
        "log bounded at K={}, got {}",
        trace::SLOW_LOG_K,
        worst.len()
    );
    assert!(!worst.is_empty(), "cancelled queries must enter the log");
    for q in &worst {
        assert!(
            q.spans
                .iter()
                .any(|s| s.flags & trace::FLAG_CANCELLED != 0),
            "every retained entry carries the cancelled flag"
        );
        assert_eq!(q.result_rows, 0, "pre-killed queries did no work");
    }
    trace::SlowQueryLog::global().clear();
}

#[test]
fn cancelled_query_renders_in_slow_log_tree() {
    let _guard = SLOW_LOG_LOCK.lock().unwrap();
    trace::SlowQueryLog::global().clear();

    let pc = build_cloud(20_000, 0xC0C);
    let traced = trace::force_thread();
    let err = select_governed(
        &pc,
        &rect(0.0, 0.0, 1000.0, 1000.0),
        &[],
        Parallelism::Serial,
        None,
        Some(1), // 1-byte budget: trips at the first materialisation
    )
    .unwrap_err();
    drop(traced);
    assert!(matches!(
        err,
        CoreError::Cancelled {
            reason: lidardb_core::CancelReason::MemBudget,
            ..
        }
    ));

    let worst = trace::SlowQueryLog::global().worst();
    let entry = worst
        .iter()
        .find(|q| q.spans.iter().any(|s| s.flags & trace::FLAG_CANCELLED != 0))
        .expect("cancelled query present in slow log");
    let tree = trace::TraceSink {
        spans: entry.spans.clone(),
    }
    .render_tree();
    assert!(tree.contains("[cancelled]"), "tree renders the flag:\n{tree}");
    trace::SlowQueryLog::global().clear();
}

// -------------------------------------------------- cancellation latency

#[test]
fn serial_cancellation_lands_within_one_checkpoint_stride() {
    // A Cancel fault armed at the first bbox_scan checkpoint must stop a
    // long serial scan at that stride boundary: the typed error reports
    // zero materialised partial rows even though the full query would
    // return far more than one stride's worth.
    let mut pc = build_cloud(200_000, 0xD0D);
    let pred = rect(0.0, 0.0, 1000.0, 1000.0);
    let full = pc
        .select_query_with(Some(&pred), &[], RefineStrategy::default(), Parallelism::Serial)
        .expect("baseline run")
        .rows
        .len();
    assert!(
        full > CHECKPOINT_STRIDE,
        "cloud must be larger than one stride for the bound to mean anything"
    );

    let fi = Arc::new(FaultInjector::new());
    fi.inject(FaultStage::QueryCheckpoint, Some("bbox_scan"), FaultKind::Cancel);
    pc.set_fault_injector(fi);
    let err = pc
        .select_query_with(Some(&pred), &[], RefineStrategy::default(), Parallelism::Serial)
        .unwrap_err();
    match err {
        CoreError::Cancelled { partial_rows, .. } => assert!(
            partial_rows <= CHECKPOINT_STRIDE,
            "cancelled after at most one stride of materialised rows, got {partial_rows}"
        ),
        other => panic!("expected Cancelled, got {other}"),
    }
}

#[test]
fn hundred_governed_queries_with_attr_filters_all_resolve() {
    // Mixed outcome soak: short deadlines + tiny budgets against a real
    // predicate. Every query must resolve to Ok or a typed governance
    // error — never a hang, never a panic.
    let pc = Arc::new(build_cloud(50_000, 0xE0E));
    let pred = rect(200.0, 200.0, 800.0, 800.0);
    let threads: Vec<_> = (0..32)
        .map(|i| {
            let pc = Arc::clone(&pc);
            let pred = pred.clone();
            std::thread::spawn(move || {
                let deadline = Some(Duration::from_micros(50 + 40 * (i % 8)));
                let budget = if i % 3 == 0 { Some(512) } else { None };
                select_governed(
                    &pc,
                    &pred,
                    &[AttrRange::new("classification", 1.0, 8.0)],
                    if i % 2 == 0 {
                        Parallelism::Serial
                    } else {
                        Parallelism::Threads(2)
                    },
                    deadline,
                    budget,
                )
            })
        })
        .collect();
    for t in threads {
        match t.join().expect("no panics") {
            Ok(_) => {}
            Err(CoreError::Cancelled { .. }) | Err(CoreError::Overloaded) => {}
            Err(other) => panic!("unexpected error kind: {other}"),
        }
    }
}

#[test]
fn slow_log_reports_nonzero_queue_wait_for_queued_query() {
    // A query that had to wait in the admission queue must surface that
    // wait in its slow-query-log entry: the whole point of the
    // `queue_wait` column is separating "slow because queued" from "slow
    // because scanning".
    let _guard = SLOW_LOG_LOCK.lock().unwrap();
    trace::SlowQueryLog::global().clear();
    let mut pc = build_cloud(20_000, 0xBEEF);
    let ctl = Arc::new(AdmissionController::new(1, 8));
    pc.set_admission(Arc::clone(&ctl));
    let held = ctl.admit(None).expect("take the only slot");
    let pc = Arc::new(pc);
    let worker = {
        let pc = Arc::clone(&pc);
        std::thread::spawn(move || {
            let _g = trace::force_thread();
            select_governed(
                &pc,
                &rect(100.0, 100.0, 900.0, 900.0),
                &[],
                Parallelism::Serial,
                Some(Duration::from_secs(30)),
                None,
            )
        })
    };
    while ctl.queued() == 0 {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(25));
    drop(held);
    worker
        .join()
        .expect("no panic")
        .expect("query succeeds once admitted");
    let worst = trace::SlowQueryLog::global().worst();
    let entry = worst
        .iter()
        .find(|q| q.queue_wait_seconds > 0.0)
        .unwrap_or_else(|| panic!("no entry with queue wait in {} entries", worst.len()));
    assert!(
        entry.queue_wait_seconds >= 0.020,
        "queued ~25 ms, log says {}s",
        entry.queue_wait_seconds
    );
    assert!(
        entry.queue_wait_seconds <= entry.seconds,
        "queue wait is part of total wall time"
    );
    trace::SlowQueryLog::global().clear();
}

#[test]
fn queue_wait_counts_against_statement_deadline() {
    // A query that waits in the admission queue must have its statement
    // deadline clock running from enqueue, not from permit grant — a
    // governed client must never observe queue-wait + a full deadline of
    // execution stacked on top of each other.
    let mut pc = build_cloud(20_000, 0xDEAD);
    // One-shot stall: the first execution checkpoint sleeps 60 ms,
    // standing in (deterministically) for one checkpoint stride of work.
    let fi = Arc::new(FaultInjector::new());
    fi.inject(FaultStage::QueryCheckpoint, None, FaultKind::Stall(60));
    pc.set_fault_injector(fi);
    let ctl = Arc::new(AdmissionController::new(1, 8));
    pc.set_admission(Arc::clone(&ctl));
    let held = ctl.admit(None).expect("take the only slot");
    let pc = Arc::new(pc);

    const DEADLINE_MS: u64 = 80;
    const STALL_MS: u64 = 60;
    let t0 = std::time::Instant::now();
    let worker = {
        let pc = Arc::clone(&pc);
        std::thread::spawn(move || {
            let r = select_governed(
                &pc,
                &rect(100.0, 100.0, 900.0, 900.0),
                &[],
                Parallelism::Serial,
                Some(Duration::from_millis(DEADLINE_MS)),
                None,
            );
            (r, t0.elapsed())
        })
    };
    // Let the query sit in the queue for half its deadline, then free
    // the slot so it gets admitted with only ~40 ms of budget left.
    std::thread::sleep(Duration::from_millis(40));
    drop(held);
    let (result, wall) = worker.join().expect("governed query must not panic");

    // 40 ms of queue wait leaves ~40 ms of execution budget; the 60 ms
    // stall at the first checkpoint overruns it, so the query must come
    // back Cancelled(Deadline). Code that restarts the clock at permit
    // grant sees elapsed = 60 ms < 80 ms and returns Ok instead.
    match result {
        Err(CoreError::Cancelled {
            reason: lidardb_core::CancelReason::Deadline,
            ..
        }) => {}
        other => panic!("expected Cancelled(Deadline), got {other:?} after {wall:?}"),
    }
    // Total wall time is bounded by deadline + one checkpoint's worth of
    // work (the stall) + scheduling slack — never queue-wait plus a full
    // fresh deadline.
    let bound = Duration::from_millis(DEADLINE_MS + STALL_MS + 250);
    assert!(
        wall <= bound,
        "query took {wall:?}, deadline-plus-one-stride bound is {bound:?}"
    );
}
