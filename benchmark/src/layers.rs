//! The traced run: where the time of an operation goes, layer by layer.
//!
//! Layers are measured only from outside — by timing calls into public
//! functions and reading public return values (`Explain`, `LoadStats`)
//! and counters (`MetricsRegistry`). The run replays the operation list
//!
//! 1. over the wire, untraced and traced in turn (tracing overhead; the
//!    registry's per-stage deltas per operation; what no layer claims),
//! 2. embedded at SQL level: parse, plan, execute, encode, decode, each a
//!    span around one public call,
//! 3. embedded at core level: the two-step query itself, with `Explain`,
//!    plus direct calls into `geom`, `imprints` and the zone maps,
//!
//! keeps every span in memory and writes them as a Chrome trace at exit.

use std::time::Instant;

use lidardb_core::{
    Aggregate, AttrRange, MetricsRegistry, RefineStrategy, SpatialPredicate, Stage,
};
use lidardb_geom::{Envelope, Geometry, Polygon};
use lidardb_imprints::ColumnImprints;
use lidardb_las::PointRecord;
use lidardb_server::Message;
use lidardb_sql::ast::Statement;
use lidardb_sql::{RowSink, SqlError, SqlValue};

use crate::ops::{Op, OpKind, Workload};
use crate::oracle::{self, Expected, Observed};
use crate::stats::{median, ratio, Metric};
use crate::system::{self, Inputs, System, Table};
use crate::wire::{self, Pass};
use crate::{host, quiesce, Args, Report};

const STAGES: usize = Stage::ALL.len();

/// The layer a registry stage belongs to, as the trace names it.
fn stage_layer(stage: Stage) -> &'static str {
    match stage {
        Stage::ImprintProbe => "imprints.probe",
        Stage::BboxScan => "storage.scan",
        Stage::GridRefine => "query.refine",
        Stage::Aggregate => "query.aggregate",
        Stage::ImprintBuild => "imprints.build",
        Stage::PersistSave => "persist.save",
        Stage::PersistLoad => "segment.tile_load",
        Stage::Morsel => "exec.morsel",
        Stage::Governor => "governor.queue_wait",
        Stage::WalAppend => "wal.append",
        Stage::Recover => "wal.recover",
        Stage::ServerRecv => "server.recv",
        Stage::ServerSend => "server.send",
    }
}

fn idx(stage: Stage) -> usize {
    Stage::ALL
        .iter()
        .position(|s| *s == stage)
        .expect("stage in ALL")
}

/// The registry at one instant; differences of two are what happened in
/// between, exact because one client drives one session.
#[derive(Debug, Clone, Default)]
struct Snap {
    ns: [u64; STAGES],
    calls: [u64; STAGES],
    counters: Vec<(&'static str, u64)>,
}

impl Snap {
    fn take() -> Snap {
        let reg = MetricsRegistry::global();
        let mut s = Snap {
            counters: reg.counter_values(),
            ..Snap::default()
        };
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            s.ns[i] = reg.stage(stage).nanos.get();
            s.calls[i] = reg.stage(stage).calls.get();
        }
        s
    }

    fn since(&self, earlier: &Snap) -> Snap {
        let mut d = self.clone();
        for i in 0..STAGES {
            d.ns[i] -= earlier.ns[i];
            d.calls[i] -= earlier.calls[i];
        }
        for (now, then) in d.counters.iter_mut().zip(&earlier.counters) {
            now.1 -= then.1;
        }
        d
    }

    fn add(&mut self, other: &Snap) {
        for i in 0..STAGES {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
        if self.counters.is_empty() {
            self.counters = other.counters.clone();
        } else {
            for (a, b) in self.counters.iter_mut().zip(&other.counters) {
                a.1 += b.1;
            }
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    }

    fn ms(&self, stage: Stage) -> f64 {
        self.ns[idx(stage)] as f64 / 1e6
    }

    fn calls(&self, stage: Stage) -> f64 {
        self.calls[idx(stage)] as f64
    }

    /// Stages that run one after another inside an operation. Morsels run
    /// inside the scan and refine stages, so they are left out.
    fn serial_ns(&self) -> u64 {
        Stage::ALL
            .into_iter()
            .filter(|s| *s != Stage::Morsel)
            .map(|s| self.ns[idx(s)])
            .sum()
    }
}

/// One span: a call into a layer.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Which replay recorded it (a Chrome-trace thread lane).
    lane: u32,
    start_us: f64,
    dur_us: f64,
    parent: Option<usize>,
    op: usize,
    /// Duration taken from a counter, start placed after its siblings.
    from_counter: bool,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Time `f` as a span; returns its index and result.
    fn call<T>(
        &mut self,
        name: &'static str,
        lane: u32,
        op: usize,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let t0 = Instant::now();
        let out = f();
        let dur_us = t0.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            lane,
            start_us: self.us(t0),
            dur_us,
            parent: None,
            op,
            from_counter: false,
        });
        (self.spans.len() - 1, out)
    }

    /// Child spans from registry stage deltas, laid end to end from the
    /// parent's start: their durations are measured, their order is not.
    fn stage_children(&mut self, parent: usize, delta: &Snap) {
        let (lane, op, mut at) = {
            let p = &self.spans[parent];
            (p.lane, p.op, p.start_us)
        };
        for stage in Stage::ALL {
            let ns = delta.ns[idx(stage)];
            if ns == 0 || stage == Stage::Morsel {
                continue;
            }
            let dur_us = ns as f64 / 1e3;
            self.spans.push(Span {
                name: stage_layer(stage),
                lane,
                start_us: at,
                dur_us,
                parent: Some(parent),
                op,
                from_counter: true,
            });
            at += dur_us;
        }
    }

    fn dur_ms(&self, span: usize) -> f64 {
        self.spans[span].dur_us / 1e3
    }

    fn chrome_json(&self) -> String {
        let lanes = [
            (1, "wire (traced pass)"),
            (2, "embedded: sql level"),
            (3, "embedded: core level"),
        ];
        let mut events: Vec<String> = lanes
            .iter()
            .map(|(tid, name)| {
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}}"
                )
            })
            .collect();
        for (i, s) in self.spans.iter().enumerate() {
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{},\"op\":{},\"from_counter\":{}}}}}",
                s.lane,
                s.name,
                s.start_us,
                s.dur_us,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                s.from_counter
            ));
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

/// Sink of the embedded SQL replay: checks rows as they arrive and keeps
/// the batches so that encode and decode can be timed on real frames.
#[derive(Default)]
struct Collect {
    seen: Observed,
    batches: Vec<Vec<Vec<SqlValue>>>,
}

impl RowSink for Collect {
    fn start(&mut self, _: &[String], _: &lidardb_core::CancelToken) -> Result<(), SqlError> {
        Ok(())
    }

    fn batch(&mut self, rows: Vec<Vec<SqlValue>>) -> Result<(), SqlError> {
        self.seen.fold(&rows);
        self.batches.push(rows);
        Ok(())
    }
}

/// Sums of one embedded SQL-level pass.
#[derive(Default)]
struct SqlLevel {
    parse_us: Vec<f64>,
    parse_insert_us: f64,
    insert_rows: u64,
    plan_us: Vec<f64>,
    exec_ms: f64,
    core_ms: f64,
    rows: u64,
    encode_us: f64,
    decode_us: f64,
    wire_bytes: u64,
    /// Everything a named layer covered, in ms.
    named_ms: f64,
    stages: Snap,
    failed: u64,
}

fn sql_level(sys: &mut System, ops: &[Op], expected: &[Expected], tr: &mut Tracer) -> SqlLevel {
    let mut out = SqlLevel::default();
    let (mut sent, mut visible) = (0usize, 0usize);
    sys.reset_stream();
    quiesce(true);
    for (i, op) in ops.iter().enumerate() {
        let (s_parse, stmt) = tr.call("sql.parse", 2, i, || lidardb_sql::parser::parse(&op.sql));
        let stmt = stmt.expect("generated SQL parses");
        let parse_us = tr.spans[s_parse].dur_us;
        out.parse_us.push(parse_us);
        let mut named_us = parse_us;
        if let OpKind::Insert(points) = &op.kind {
            out.parse_insert_us += parse_us;
            out.insert_rows += points.len() as u64;
        }
        if let Statement::Select(sel) = &stmt {
            let (s_plan, plan) = tr.call("sql.plan", 2, i, || {
                lidardb_sql::plan::plan_select(&sys.catalog, sel).map(drop)
            });
            plan.expect("generated SQL plans");
            out.plan_us.push(tr.spans[s_plan].dur_us);
            named_us += tr.spans[s_plan].dur_us;
        }
        let mut sink = Collect::default();
        let before = Snap::take();
        let (s_exec, done) = tr.call("sql.execute", 2, i, || {
            lidardb_sql::execute_streamed(
                &sys.catalog,
                &stmt,
                lidardb_sql::STREAM_BATCH_ROWS,
                &mut sink,
            )
        });
        let delta = Snap::take().since(&before);
        tr.stage_children(s_exec, &delta);
        out.exec_ms += tr.dur_ms(s_exec);
        out.core_ms += delta.serial_ns() as f64 / 1e6;
        named_us += tr.spans[s_exec].dur_us;
        out.stages.add(&delta);
        out.rows += sink.seen.rows;

        let (s_enc, frames) = tr.call("server.encode", 2, i, || {
            std::mem::take(&mut sink.batches)
                .into_iter()
                .map(|rows| Message::Batch { rows }.encode())
                .collect::<Vec<_>>()
        });
        out.encode_us += tr.spans[s_enc].dur_us;
        out.wire_bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
        let (s_dec, decoded) = tr.call("server.decode", 2, i, || {
            frames.iter().all(|f| Message::decode(f).is_ok())
        });
        out.decode_us += tr.spans[s_dec].dur_us;
        named_us += tr.spans[s_enc].dur_us + tr.spans[s_dec].dur_us;
        out.named_ms += named_us / 1e3;

        if let OpKind::Insert(_) = &op.kind {
            sent += 1;
            if matches!(sink.seen.first.get(1), Some(SqlValue::Int(1))) {
                visible = sent;
            }
        }
        if done.is_err() || !decoded || !oracle::matches(&expected[i], &sink.seen, visible) {
            out.failed += 1;
        }
    }
    out
}

fn viewport_pred(env: &Envelope) -> SpatialPredicate {
    SpatialPredicate::Within(Geometry::Polygon(Polygon::rectangle(env)))
}

/// Sums of one embedded core-level pass.
#[derive(Default)]
struct CoreLevel {
    select_ms: f64,
    selects: u64,
    t_imprints_ms: f64,
    t_bbox_ms: f64,
    t_refine_ms: f64,
    exact_tests: u64,
    after_bbox: u64,
    candidate_rows: u64,
    result_rows: u64,
    /// `scan_rows_examined` of the whole pass.
    rows_examined: f64,
    aggregate_ms: f64,
    aggregates: u64,
    prune_us: Vec<f64>,
    classify_us: Vec<f64>,
    pip_ns: Vec<f64>,
    imprint_append_us: f64,
    appended_rows: u64,
    failed: u64,
}

/// Direct calls into `geom` on an operation's own geometry: one grid of
/// cell classifications and one batch of exact point tests.
fn geom_probe(pred: &SpatialPredicate, out: &mut CoreLevel, tr: &mut Tracer, op: usize) {
    const N: usize = 24;
    let Some(env) = pred.filter_envelope() else {
        return;
    };
    let (w, h) = (env.width() / N as f64, env.height() / N as f64);
    let cells: Vec<Envelope> = (0..N * N)
        .filter_map(|k| {
            let (cx, cy) = ((k % N) as f64, (k / N) as f64);
            Envelope::new(
                env.min_x + cx * w,
                env.min_y + cy * h,
                env.min_x + (cx + 1.0) * w,
                env.min_y + (cy + 1.0) * h,
            )
            .ok()
        })
        .collect();
    let (s, boundary) = tr.call("geom.classify", 3, op, || {
        cells
            .iter()
            .filter(|c| {
                let class = match pred {
                    SpatialPredicate::Within(Geometry::Polygon(pg)) => {
                        lidardb_geom::classify_rect_polygon(c, pg)
                    }
                    SpatialPredicate::Within(g) => lidardb_geom::classify_rect_dwithin(c, g, 0.0),
                    SpatialPredicate::DWithin(g, d) => {
                        lidardb_geom::classify_rect_dwithin(c, g, *d)
                    }
                };
                class == lidardb_geom::RectClass::Boundary
            })
            .count()
    });
    std::hint::black_box(boundary);
    out.classify_us
        .push(tr.spans[s].dur_us / cells.len().max(1) as f64);
    let (s, inside) = tr.call("geom.point_test", 3, op, || {
        cells.iter().filter(|c| pred.matches(&c.center())).count()
    });
    std::hint::black_box(inside);
    out.pip_ns
        .push(tr.spans[s].dur_us * 1e3 / cells.len().max(1) as f64);
}

fn core_level(sys: &mut System, ops: &[Op], expected: &[Expected], tr: &mut Tracer) -> CoreLevel {
    let mut out = CoreLevel::default();
    sys.reset_stream();
    quiesce(true);
    let workers = sys.catalog.parallelism();
    // The benchmark's own imprint over x, refreshed beside the table's,
    // so that the incremental append is one timed public call.
    let mut own_imprint = match &sys.table {
        Table::Stream(lock) => {
            let pc = lock.read().expect("stream lock");
            Some(ColumnImprints::build(pc.column("x").expect("x column")).expect("imprint build"))
        }
        _ => None,
    };
    let before = Snap::take();
    for (i, op) in ops.iter().enumerate() {
        match (&op.kind, &sys.table) {
            (OpKind::Viewport(env), table) => {
                let pred = viewport_pred(env);
                if let Table::Tiled(tc) = table {
                    let preds = [("x", env.min_x, env.max_x), ("y", env.min_y, env.max_y)];
                    let (s, kept) =
                        tr.call("storage.prune", 3, i, || tc.tiles().prune(&preds).len());
                    std::hint::black_box(kept);
                    out.prune_us.push(tr.spans[s].dur_us);
                }
                let (s, sel) = tr.call("query.select", 3, i, || match table {
                    Table::Flat(pc) => {
                        pc.select_query_with(Some(&pred), &[], RefineStrategy::default(), workers)
                    }
                    Table::Tiled(tc) => {
                        tc.select_query_with(Some(&pred), &[], RefineStrategy::default(), workers)
                    }
                    Table::Stream(_) => unreachable!("navigation serves flat or tiled tables"),
                });
                let sel = sel.expect("core select");
                out.note_select(tr.dur_ms(s), &sel.explain);
                if !matches!(&expected[i], Expected::Rows { count, .. } if *count == sel.rows.len() as u64)
                {
                    out.failed += 1;
                }
            }
            (
                OpKind::Join {
                    features,
                    pred,
                    classification,
                },
                Table::Flat(pc),
            ) => {
                let theme = [AttrRange::new(
                    "classification",
                    f64::from(*classification),
                    f64::from(*classification),
                )];
                let (mut count, mut sum_z) = (0u64, 0.0f64);
                for g in features {
                    let pred = pred.to_feature(g);
                    let (s, sel) = tr.call("query.select", 3, i, || {
                        pc.select_query_with(
                            Some(&pred),
                            &theme,
                            RefineStrategy::default(),
                            workers,
                        )
                    });
                    let sel = sel.expect("core select");
                    out.note_select(tr.dur_ms(s), &sel.explain);
                    let (s, avg) = tr.call("query.aggregate", 3, i, || {
                        pc.aggregate(&sel.rows, "z", Aggregate::Avg)
                    });
                    out.aggregate_ms += tr.dur_ms(s);
                    out.aggregates += 1;
                    count += sel.rows.len() as u64;
                    sum_z += avg.expect("aggregate").unwrap_or(0.0) * sel.rows.len() as f64;
                }
                if let Some(g) = features.first() {
                    geom_probe(&pred.to_feature(g), &mut out, tr, i);
                }
                let ok = matches!(&expected[i], Expected::Agg { count: c, sum_z: s }
                    if *c == count && (s - sum_z).abs() <= 1e-6 * s.abs().max(1.0));
                if !ok {
                    out.failed += 1;
                }
            }
            (OpKind::Insert(points), Table::Stream(lock)) => {
                let records: Vec<PointRecord> = points
                    .iter()
                    .map(|p| PointRecord {
                        x: p.x,
                        y: p.y,
                        z: p.z,
                        classification: p.classification,
                        intensity: p.intensity,
                        ..PointRecord::default()
                    })
                    .collect();
                let mut pc = lock.write().expect("stream lock");
                let (_, acked) = tr.call("core.ingest", 3, i, || pc.ingest_records(&records));
                acked.expect("ingest batch");
                let own = own_imprint.as_mut().expect("built for stream tables");
                let column = pc.column("x").expect("x column");
                let (s, refreshed) = tr.call("imprints.append", 3, i, || own.append_column(column));
                refreshed.expect("imprint append");
                out.imprint_append_us += tr.spans[s].dur_us;
                out.appended_rows += records.len() as u64;
            }
            (OpKind::Count(env), Table::Stream(lock)) => {
                let pred = viewport_pred(env);
                let pc = lock.read().expect("stream lock");
                let (s, sel) = tr.call("query.select", 3, i, || {
                    pc.select_query_with(Some(&pred), &[], RefineStrategy::default(), workers)
                });
                let sel = sel.expect("core select");
                out.note_select(tr.dur_ms(s), &sel.explain);
            }
            (kind, _) => unreachable!("{kind:?} does not run on this table"),
        }
    }
    out.rows_examined = Snap::take().since(&before).counter("scan_rows_examined");
    out
}

impl CoreLevel {
    fn note_select(&mut self, ms: f64, e: &lidardb_core::Explain) {
        self.select_ms += ms;
        self.selects += 1;
        self.t_imprints_ms += e.t_imprints * 1e3;
        self.t_bbox_ms += e.t_bbox * 1e3;
        self.t_refine_ms += e.t_refine * 1e3;
        self.exact_tests += e.exact_tests as u64;
        self.after_bbox += e.after_bbox as u64;
        self.candidate_rows += e.after_imprints as u64;
        self.result_rows += e.result_rows as u64;
    }
}

/// What the traced wire pass adds to a plain one: a registry snapshot
/// after every operation, and the spans made from it.
fn traced_wire_pass(
    sys: &mut System,
    ops: &[Op],
    expected: &[Expected],
    tr: &mut Tracer,
) -> (Pass, Snap) {
    sys.reset_stream();
    quiesce(true);
    let mut total = Snap::default();
    let mut last = Snap::take();
    let pass = wire::run_pass(&mut sys.client, ops, expected, |i, sample| {
        let now = Snap::take();
        let delta = now.since(&last);
        tr.spans.push(Span {
            name: "client.op",
            lane: 1,
            start_us: tr.us(sample.start),
            dur_us: sample.ms * 1e3,
            parent: None,
            op: i,
            from_counter: false,
        });
        tr.stage_children(tr.spans.len() - 1, &delta);
        total.add(&delta);
        last = now;
    });
    (pass, total)
}

/// Counts that must repeat exactly from run to run: the numerators of
/// `imprints.candidate_ratio` (Σ `Explain::after_imprints` of the
/// core-level pass), `segment.loads_per_op` and `wal.syncs_per_kbatch`.
type ExactCounts = [(&'static str, u64); 3];

pub fn trace_run(args: &Args, inputs: &Inputs, ops: &[Op], expected: &[Expected]) -> Report {
    let (report, exact) = traced(args, inputs, ops, expected);
    println!("repeat-exact counts: {exact:?}");
    report
}

fn traced(
    args: &Args,
    inputs: &Inputs,
    ops: &[Op],
    expected: &[Expected],
) -> (Report, ExactCounts) {
    let n_ops = ops.len();
    let mut tr = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mem_gbps = median(&[
        host::mem_stream_gbps(),
        host::mem_stream_gbps(),
        host::mem_stream_gbps(),
    ]);
    let spin_ms = median(&[host::spin_ms(), host::spin_ms(), host::spin_ms()]);

    quiesce(false);
    host::reset_peak_rss();
    let mut sys = system::set_up(args.workload, inputs, &args.scale);
    let setup_rss_mb = host::peak_rss_mb();
    host::reset_peak_rss();
    let times = sys.times;
    let imprint_bytes = match &sys.table {
        Table::Flat(pc) => pc.index_bytes(),
        Table::Stream(lock) => lock.read().expect("stream lock").index_bytes(),
        Table::Tiled(_) => 0,
    };
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut tally = |pass: Pass| {
        attempted += pass.ops() as u64;
        failed += pass.failed;
        pass
    };
    let plain_wire_pass = |sys: &mut System| {
        sys.reset_stream();
        quiesce(false);
        wire::run_pass(&mut sys.client, ops, expected, |_, _| {})
    };
    tally(plain_wire_pass(&mut sys));

    // Round trip of a statement that does no work.
    let rtt_us: Vec<f64> = (0..100)
        .map(|_| {
            let t0 = Instant::now();
            sys.client
                .query_collect("SET STATEMENT_TIMEOUT = 0")
                .expect("no-op statement");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();

    // Untraced and traced wire passes in turn, for half the time budget.
    let (mut plain_rate, mut traced_rate) = (Vec::new(), Vec::new());
    let mut wire_total = Snap::default();
    let mut last_traced = None;
    let budget = Instant::now();
    while plain_rate.is_empty()
        || (budget.elapsed().as_secs_f64() < args.seconds / 2.0 && plain_rate.len() < 3)
    {
        plain_rate.push(tally(plain_wire_pass(&mut sys)).ops_per_s());
        // Only the last traced pass keeps its spans.
        tr.spans.clear();
        let (pass, total) = traced_wire_pass(&mut sys, ops, expected, &mut tr);
        traced_rate.push(pass.ops_per_s());
        wire_total = total;
        last_traced = Some(tally(pass));
    }
    let traced = last_traced.expect("at least one traced pass");
    let serving_rss_mb = host::peak_rss_mb();
    let peak_resident_mb = match &sys.table {
        Table::Tiled(tc) => tc.peak_resident_bytes() as f64 / 1e6,
        _ => 0.0,
    };

    let sql = sql_level(&mut sys, ops, expected, &mut tr);
    let core = core_level(&mut sys, ops, expected, &mut tr);

    // Leave the stream table as a wire pass leaves it, so that teardown
    // measures the same log on every run.
    let acked = tally(plain_wire_pass(&mut sys)).points;
    let acked = if args.workload == Workload::IngestMixed {
        acked
    } else {
        0
    };
    attempted += 2 * n_ops as u64;
    failed += sql.failed + core.failed;
    let points = sys.points;
    let down = sys.tear_down(acked);
    if args.workload == Workload::IngestMixed && down.recovered_rows != points as u64 + acked {
        failed += 1;
    }

    std::fs::create_dir_all(host::SCRATCH_ROOT).expect("create scratch root");
    let trace_path = std::path::Path::new(host::SCRATCH_ROOT)
        .join(format!("trace_{}.json", args.workload.name()));
    std::fs::write(&trace_path, tr.chrome_json()).expect("write trace");
    println!(
        "trace: {} spans written to {}",
        tr.spans.len(),
        trace_path.display()
    );

    // Residual: client-observed time that no named layer covers. Wire
    // ops and embedded ops are the same list, so they pair up by index.
    let wire_ms: f64 = traced.samples.iter().map(|s| s.ms).sum();
    let transport_ms = wire_total.ms(Stage::ServerRecv) + wire_total.ms(Stage::ServerSend);
    let named_ms = sql.named_ms + transport_ms - sql.encode_us / 1e3;
    let scan_s = sql.stages.ms(Stage::BboxScan) / 1e3;
    // x and y are both read for every row examined.
    let scan_gbps = ratio(
        sql.stages.counter("scan_rows_examined") * 16.0 / 1e9,
        scan_s,
    );
    let pruned = sql.stages.counter("tiles_pruned");
    let probed = sql.stages.counter("tiles_probed");
    let loaded = sql.stages.counter("tiles_loaded");
    let batches = wire_total.counter("wal_batches");
    let krows = |rows: u64| rows as f64 / 1e3;
    let n = n_ops;
    let m = Metric::new;

    let metrics = vec![
        m("host.mem_gbps", "GB/s", mem_gbps, 3),
        m("host.spin_ms", "ms", spin_ms, 3),
        m("host.cpus", "count", host::cpus() as f64, 1),
        m("host.peak_rss_mb", "MB", serving_rss_mb, 1),
        m("datagen.gen_s", "s", inputs.gen_s, 1),
        m(
            "las.decode_mbps",
            "MB/s",
            ratio(inputs.las_bytes as f64 / 1e6, times.decode_s),
            inputs.las_files.len(),
        ),
        m(
            "loader.points_per_s",
            "1/s",
            ratio(points as f64, times.load_s),
            1,
        ),
        m("loader.peak_rss_mb", "MB", setup_rss_mb, 1),
        m("imprints.build_s", "s", times.imprint_build_s, 1),
        m(
            "persist.save_tiled_s",
            "s",
            if args.workload == Workload::NavTiled {
                times.save_s
            } else {
                0.0
            },
            1,
        ),
        m(
            "persist.save_mbps",
            "MB/s",
            if times.save_s > 0.0 {
                ratio(times.saved_bytes as f64 / 1e6, times.save_s)
            } else {
                ratio(down.disk_bytes as f64 / 1e6, down.save_s)
            },
            1,
        ),
        m("persist.open_s", "s", times.open_s, 1),
        m(
            "imprints.probe_us",
            "us",
            ratio(
                sql.stages.ms(Stage::ImprintProbe) * 1e3,
                sql.stages.calls(Stage::ImprintProbe),
            ),
            sql.stages.calls(Stage::ImprintProbe) as usize,
        ),
        m(
            "imprints.candidate_ratio",
            "ratio",
            ratio(core.candidate_rows as f64, core.result_rows as f64),
            core.selects as usize,
        ),
        m(
            "storage.scan_ms",
            "ms",
            sql.stages.ms(Stage::BboxScan) / n as f64,
            n,
        ),
        m("storage.scan_gbps", "GB/s", scan_gbps, n),
        m(
            "storage.scan_pct_of_mem",
            "%",
            100.0 * scan_gbps / mem_gbps,
            n,
        ),
        m(
            "storage.rows_examined_per_row",
            "ratio",
            ratio(core.rows_examined, core.result_rows as f64),
            core.selects as usize,
        ),
        m(
            "imprints.bytes_per_point",
            "B",
            imprint_bytes as f64 / points as f64,
            points,
        ),
        m(
            "persist.bytes_per_point",
            "B",
            ratio((down.disk_bytes - down.wal_bytes) as f64, points as f64),
            points,
        ),
        m(
            "wal.bytes_per_point",
            "B",
            ratio(down.wal_bytes as f64, acked as f64),
            acked as usize,
        ),
        m("sql.parse_us", "us", median(&sql.parse_us), n),
        m(
            "sql.plan_us",
            "us",
            if sql.plan_us.is_empty() {
                0.0
            } else {
                median(&sql.plan_us)
            },
            sql.plan_us.len(),
        ),
        m(
            "sql.exec_self_ms",
            "ms",
            (sql.exec_ms - sql.core_ms) / n as f64,
            n,
        ),
        m(
            "sql.rows_per_s",
            "1/s",
            ratio(sql.rows as f64, sql.exec_ms / 1e3),
            n,
        ),
        m("server.rtt_us", "us", median(&rtt_us), rtt_us.len()),
        m(
            "server.encode_us_per_krow",
            "us",
            ratio(sql.encode_us, krows(sql.rows)),
            n,
        ),
        m(
            "server.decode_us_per_krow",
            "us",
            ratio(sql.decode_us, krows(sql.rows)),
            n,
        ),
        m(
            "server.wire_bytes_per_row",
            "B",
            ratio(sql.wire_bytes as f64, sql.rows as f64),
            n,
        ),
        m(
            "server.send_share",
            "ratio",
            ratio(wire_total.ms(Stage::ServerSend), wire_ms),
            n,
        ),
        m(
            "segment.prune_ratio",
            "ratio",
            ratio(pruned, pruned + probed),
            n,
        ),
        m(
            "segment.hit_ratio",
            "ratio",
            if probed > 0.0 {
                1.0 - loaded / probed
            } else {
                0.0
            },
            n,
        ),
        m("segment.loads_per_op", "ratio", loaded / n as f64, n),
        m(
            "segment.evictions_per_op",
            "ratio",
            sql.stages.counter("tiles_evicted") / n as f64,
            n,
        ),
        m(
            "segment.tile_load_ms",
            "ms",
            ratio(
                sql.stages.ms(Stage::PersistLoad),
                sql.stages.calls(Stage::PersistLoad),
            ),
            sql.stages.calls(Stage::PersistLoad) as usize,
        ),
        m(
            "segment.select_ms",
            "ms",
            if args.workload == Workload::NavTiled {
                ratio(core.select_ms, core.selects as f64)
            } else {
                0.0
            },
            core.selects as usize,
        ),
        m("segment.peak_resident_mb", "MB", peak_resident_mb, 1),
        m(
            "storage.prune_us",
            "us",
            if core.prune_us.is_empty() {
                0.0
            } else {
                median(&core.prune_us)
            },
            core.prune_us.len(),
        ),
        m(
            "query.select_ms",
            "ms",
            ratio(core.select_ms, core.selects as f64),
            core.selects as usize,
        ),
        m(
            "query.t_imprints_ms",
            "ms",
            ratio(core.t_imprints_ms, core.selects as f64),
            core.selects as usize,
        ),
        m(
            "query.t_bbox_ms",
            "ms",
            ratio(core.t_bbox_ms, core.selects as f64),
            core.selects as usize,
        ),
        m(
            "query.t_refine_ms",
            "ms",
            ratio(core.t_refine_ms, core.selects as f64),
            core.selects as usize,
        ),
        m(
            "query.exact_test_ratio",
            "ratio",
            ratio(core.exact_tests as f64, core.after_bbox as f64),
            core.selects as usize,
        ),
        m(
            "query.aggregate_ms",
            "ms",
            ratio(core.aggregate_ms, core.aggregates as f64),
            core.aggregates as usize,
        ),
        m(
            "geom.classify_us",
            "us",
            if core.classify_us.is_empty() {
                0.0
            } else {
                median(&core.classify_us)
            },
            core.classify_us.len(),
        ),
        m(
            "geom.pip_ns",
            "ns",
            if core.pip_ns.is_empty() {
                0.0
            } else {
                median(&core.pip_ns)
            },
            core.pip_ns.len(),
        ),
        m(
            "wal.append_us_per_batch",
            "us",
            ratio(
                wire_total.ms(Stage::WalAppend) * 1e3,
                wire_total.calls(Stage::WalAppend),
            ),
            wire_total.calls(Stage::WalAppend) as usize,
        ),
        m(
            "wal.syncs_per_kbatch",
            "ratio",
            ratio(wire_total.counter("wal_syncs") * 1e3, batches),
            batches as usize,
        ),
        m("wal.recovery_s", "s", down.recovery_s, 1),
        m(
            "imprints.append_us_per_krow",
            "us",
            ratio(core.imprint_append_us, krows(core.appended_rows)),
            core.appended_rows as usize,
        ),
        m(
            "sql.parse_insert_us_per_krow",
            "us",
            ratio(sql.parse_insert_us, krows(sql.insert_rows)),
            sql.insert_rows as usize,
        ),
        m(
            "governor.queue_wait_us",
            "us",
            wire_total.ms(Stage::Governor) * 1e3 / n as f64,
            n,
        ),
        m(
            "trace.overhead_pct",
            "%",
            100.0 * (1.0 - median(&traced_rate) / median(&plain_rate)),
            plain_rate.len(),
        ),
        m(
            "trace.residual_pct",
            "%",
            100.0 * (1.0 - named_ms / wire_ms),
            n,
        ),
    ];
    let exact = [
        ("candidate_rows", core.candidate_rows),
        ("tiles_loaded", loaded as u64),
        ("wal_syncs", wire_total.counter("wal_syncs") as u64),
    ];
    let report = Report {
        metrics,
        attempted,
        failed,
    };
    (report, exact)
}

/// The scale of the unit tests that run whole (tiny) benchmarks.
#[cfg(test)]
pub fn tiny_scale() -> crate::ops::Scale {
    crate::ops::Scale {
        extent_m: 160.0,
        density: 1.0,
        ops_per_pass: 20,
        insert_rows: 20,
        tile_rows: 2_048,
        ..crate::ops::Scale::smoke()
    }
}

/// Tests that run a benchmark read the process-wide registry and must
/// not overlap.
#[cfg(test)]
pub static WHOLE_RUN: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: Workload, seed: u64) -> (Report, ExactCounts) {
        let args = Args {
            workload,
            seed,
            seconds: 0.0,
            trace: true,
            scale: tiny_scale(),
        };
        let (inputs, ops, expected) = crate::prepare(&args);
        traced(&args, &inputs, &ops, &expected)
    }

    #[test]
    fn traced_runs_repeat_their_counts_exactly_and_agree_with_the_oracle() {
        let _alone = WHOLE_RUN
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for workload in Workload::ALL {
            let ((a, exact_a), (_, exact_b)) = (run(workload, 21), run(workload, 21));
            assert_eq!(a.failed, 0, "{} disagrees with the oracle", workload.name());
            assert_eq!(exact_a, exact_b, "{} counts do not repeat", workload.name());
            let count = |name: &str| exact_a.iter().find(|(n, _)| *n == name).unwrap().1;
            assert!(count("candidate_rows") > 0);
            assert_eq!(count("tiles_loaded") > 0, workload == Workload::NavTiled);
            assert_eq!(count("wal_syncs") > 0, workload == Workload::IngestMixed);
            let mut names: Vec<&str> = a.metrics.iter().map(|m| m.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), a.metrics.len(), "metric names are used once");
            assert!(a.metrics.iter().all(|m| m.value.is_finite()));
        }
    }
}
