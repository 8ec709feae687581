//! Expression evaluation and plan execution: materialised ([`execute`])
//! and streamed ([`execute_streamed`], column-major batches into a
//! [`RowSink`]).

use std::sync::Arc;
use std::time::Instant;

use lidardb_core::{GovernCtx, PointCloud, SpatialPredicate};
use lidardb_storage::{for_each_variant, Native, PhysicalType, Value};

use crate::ast::{BinOp, Expr, SelectItem, SelectStmt, Statement};
use crate::catalog::{Catalog, PcRead, Run, Table, VectorTable};
use crate::error::SqlError;
use crate::functions;
use crate::plan::{plan_select, JoinPred, Plan};
use crate::value::SqlValue;

/// One traced operator of an executed query — the "execution time spent in
/// each operator" view of §4.2.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Operator label.
    pub operator: String,
    /// Output cardinality.
    pub rows: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
}

impl TraceEntry {
    fn new(operator: impl Into<String>, rows: usize, seconds: f64) -> Self {
        TraceEntry {
            operator: operator.into(),
            rows,
            seconds,
        }
    }
}

/// An executed query result.
#[derive(Debug, Clone, Default)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<SqlValue>>,
    /// Per-operator trace.
    pub trace: Vec<TraceEntry>,
}

impl ResultSet {
    /// Render as an ASCII table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(SqlValue::render).collect())
            .collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let sep: String = widths
            .iter()
            .map(|w| format!("+{}", "-".repeat(w + 2)))
            .collect::<String>()
            + "+\n";
        out += &sep;
        out += "|";
        for (c, w) in self.columns.iter().zip(&widths) {
            out += &format!(" {c:w$} |");
        }
        out += "\n";
        out += &sep;
        for row in &rendered {
            out += "|";
            for (cell, w) in row.iter().zip(&widths) {
                out += &format!(" {cell:w$} |");
            }
            out += "\n";
        }
        out += &sep;
        out += &format!("{} row(s)\n", self.rows.len());
        out
    }

    /// Render the operator trace.
    pub fn render_trace(&self) -> String {
        let mut out = String::from("operator                              rows      seconds\n");
        for t in &self.trace {
            out += &format!("{:<36}  {:<8}  {:.6}\n", t.operator, t.rows, t.seconds);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Row contexts
// ---------------------------------------------------------------------------

/// Column resolution context for one logical row.
pub trait Ctx {
    /// Resolve a (possibly qualified) column to a value.
    fn col(&self, table: Option<&str>, name: &str) -> Result<SqlValue, SqlError>;
}

struct ConstCtx;

impl Ctx for ConstCtx {
    fn col(&self, _table: Option<&str>, name: &str) -> Result<SqlValue, SqlError> {
        Err(SqlError::Exec(format!(
            "column {name} referenced in a constant context"
        )))
    }
}

/// Evaluate a constant expression (no column references).
pub fn eval_const(e: &Expr) -> Result<SqlValue, SqlError> {
    eval(e, &ConstCtx)
}

fn from_storage(v: Value) -> SqlValue {
    match v {
        Value::I64(x) => SqlValue::Int(x),
        Value::U64(x) => i64::try_from(x)
            .map(SqlValue::Int)
            .unwrap_or(SqlValue::Float(x as f64)),
        Value::F64(x) => SqlValue::Float(x),
    }
}

struct PcCtx<'a> {
    pc: &'a PointCloud,
    alias: &'a str,
    row: usize,
}

impl Ctx for PcCtx<'_> {
    fn col(&self, table: Option<&str>, name: &str) -> Result<SqlValue, SqlError> {
        if let Some(t) = table {
            if t != self.alias {
                return Err(SqlError::Exec(format!("unknown table alias {t}")));
            }
        }
        let col = self.pc.column(name)?;
        Ok(from_storage(col.get(self.row).ok_or_else(|| {
            SqlError::Exec(format!("row {} out of range", self.row))
        })?))
    }
}

struct VecCtx<'a> {
    vt: &'a VectorTable,
    alias: &'a str,
    row: usize,
}

impl Ctx for VecCtx<'_> {
    fn col(&self, table: Option<&str>, name: &str) -> Result<SqlValue, SqlError> {
        if let Some(t) = table {
            if t != self.alias {
                return Err(SqlError::Exec(format!("unknown table alias {t}")));
            }
        }
        self.vt.value(name, self.row)
    }
}

struct PairCtx<'a> {
    pc: PcCtx<'a>,
    vec: VecCtx<'a>,
}

impl Ctx for PairCtx<'_> {
    fn col(&self, table: Option<&str>, name: &str) -> Result<SqlValue, SqlError> {
        match table {
            Some(t) if t == self.pc.alias => self.pc.col(table, name),
            Some(t) if t == self.vec.alias => self.vec.col(table, name),
            Some(t) => Err(SqlError::Exec(format!("unknown table alias {t}"))),
            None => self
                .pc
                .col(None, name)
                .or_else(|_| self.vec.col(None, name)),
        }
    }
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

/// Evaluate an expression in a row context (SQL three-valued logic: NULL
/// propagates through comparisons and arithmetic; a NULL filter result is
/// treated as not-matching).
pub fn eval(e: &Expr, ctx: &dyn Ctx) -> Result<SqlValue, SqlError> {
    match e {
        Expr::Number(v) => Ok(if v.fract() == 0.0 && v.abs() < 9e15 {
            SqlValue::Int(*v as i64)
        } else {
            SqlValue::Float(*v)
        }),
        Expr::Str(s) => Ok(SqlValue::Str(s.clone())),
        Expr::Column { table, name } => ctx.col(table.as_deref(), name),
        Expr::CountStar => Err(SqlError::Exec(
            "COUNT(*) outside an aggregate context".into(),
        )),
        Expr::Func { name, args } => {
            if is_aggregate(name) {
                return Err(SqlError::Exec(format!(
                    "{name} outside an aggregate context"
                )));
            }
            let vals: Vec<SqlValue> = args
                .iter()
                .map(|a| eval(a, ctx))
                .collect::<Result<_, _>>()?;
            functions::call(name, &vals)
        }
        Expr::Not(inner) => match eval(inner, ctx)? {
            SqlValue::Null => Ok(SqlValue::Null),
            v => Ok(SqlValue::Bool(!v.as_bool()?)),
        },
        Expr::Neg(inner) => match eval(inner, ctx)? {
            SqlValue::Null => Ok(SqlValue::Null),
            SqlValue::Int(v) => Ok(SqlValue::Int(-v)),
            v => Ok(SqlValue::Float(-v.as_f64()?)),
        },
        Expr::Between { expr, lo, hi } => {
            let v = eval(expr, ctx)?;
            let lo = eval(lo, ctx)?;
            let hi = eval(hi, ctx)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Ok(SqlValue::Null);
            }
            let ge = v.compare(&lo).map(|o| o.is_ge());
            let le = v.compare(&hi).map(|o| o.is_le());
            match (ge, le) {
                (Some(a), Some(b)) => Ok(SqlValue::Bool(a && b)),
                _ => Ok(SqlValue::Null),
            }
        }
        Expr::Binary { op, left, right } => {
            match op {
                BinOp::And => {
                    let l = eval(left, ctx)?;
                    if l == SqlValue::Bool(false) {
                        return Ok(SqlValue::Bool(false));
                    }
                    let r = eval(right, ctx)?;
                    if r == SqlValue::Bool(false) {
                        return Ok(SqlValue::Bool(false));
                    }
                    if l.is_null() || r.is_null() {
                        return Ok(SqlValue::Null);
                    }
                    Ok(SqlValue::Bool(l.as_bool()? && r.as_bool()?))
                }
                BinOp::Or => {
                    let l = eval(left, ctx)?;
                    if l == SqlValue::Bool(true) {
                        return Ok(SqlValue::Bool(true));
                    }
                    let r = eval(right, ctx)?;
                    if r == SqlValue::Bool(true) {
                        return Ok(SqlValue::Bool(true));
                    }
                    if l.is_null() || r.is_null() {
                        return Ok(SqlValue::Null);
                    }
                    Ok(SqlValue::Bool(l.as_bool()? || r.as_bool()?))
                }
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let l = eval(left, ctx)?;
                    let r = eval(right, ctx)?;
                    if l.is_null() || r.is_null() {
                        return Ok(SqlValue::Null);
                    }
                    match l.compare(&r) {
                        Some(ord) => Ok(SqlValue::Bool(match op {
                            BinOp::Eq => ord.is_eq(),
                            BinOp::Ne => ord.is_ne(),
                            BinOp::Lt => ord.is_lt(),
                            BinOp::Le => ord.is_le(),
                            BinOp::Gt => ord.is_gt(),
                            BinOp::Ge => ord.is_ge(),
                            _ => unreachable!(),
                        })),
                        None => Err(SqlError::Exec(format!(
                            "cannot compare {} with {}",
                            l.type_name(),
                            r.type_name()
                        ))),
                    }
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                    let l = eval(left, ctx)?;
                    let r = eval(right, ctx)?;
                    apply_binop(*op, l, r)
                }
            }
        }
    }
}

/// Apply an arithmetic or comparison operator to two computed values
/// (shared by row evaluation and aggregate arithmetic).
fn apply_binop(op: BinOp, l: SqlValue, r: SqlValue) -> Result<SqlValue, SqlError> {
    if l.is_null() || r.is_null() {
        return Ok(SqlValue::Null);
    }
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            if let (SqlValue::Int(a), SqlValue::Int(b)) = (&l, &r) {
                if op != BinOp::Div {
                    let v = match op {
                        BinOp::Add => a.wrapping_add(*b),
                        BinOp::Sub => a.wrapping_sub(*b),
                        BinOp::Mul => a.wrapping_mul(*b),
                        _ => unreachable!(),
                    };
                    return Ok(SqlValue::Int(v));
                }
            }
            let (a, b) = (l.as_f64()?, r.as_f64()?);
            Ok(SqlValue::Float(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                _ => unreachable!(),
            }))
        }
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            match l.compare(&r) {
                Some(ord) => Ok(SqlValue::Bool(match op {
                    BinOp::Eq => ord.is_eq(),
                    BinOp::Ne => ord.is_ne(),
                    BinOp::Lt => ord.is_lt(),
                    BinOp::Le => ord.is_le(),
                    BinOp::Gt => ord.is_gt(),
                    BinOp::Ge => ord.is_ge(),
                    _ => unreachable!(),
                })),
                None => Err(SqlError::Exec(format!(
                    "cannot compare {} with {}",
                    l.type_name(),
                    r.type_name()
                ))),
            }
        }
        BinOp::And | BinOp::Or => Ok(SqlValue::Bool(match op {
            BinOp::And => l.as_bool()? && r.as_bool()?,
            _ => l.as_bool()? || r.as_bool()?,
        })),
    }
}

fn is_aggregate(name: &str) -> bool {
    matches!(name, "COUNT" | "SUM" | "AVG" | "MIN" | "MAX")
}

/// A filter result: NULL counts as not matching.
fn truthy(v: &SqlValue) -> bool {
    *v == SqlValue::Bool(true)
}

/// The residual filter: whether the row satisfies every term.
fn passes(terms: &[Expr], ctx: &dyn Ctx) -> Result<bool, SqlError> {
    for term in terms {
        if !truthy(&eval(term, ctx)?) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The row contexts of one run: global row id `r` is row `r - base` of
/// the run's segment.
fn run_ctxs<'a>(run: &'a Run<'_>, alias: &'a str) -> impl Iterator<Item = PcCtx<'a>> {
    let (pc, base, rows) = run;
    rows.iter().map(move |&r| PcCtx {
        pc,
        alias,
        row: r - base,
    })
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// One logical input row of the projection stage.
enum RowEnv<'a> {
    Pc(PcCtx<'a>),
    Vec(VecCtx<'a>),
    Pair(PairCtx<'a>),
}

impl Ctx for RowEnv<'_> {
    fn col(&self, table: Option<&str>, name: &str) -> Result<SqlValue, SqlError> {
        match self {
            RowEnv::Pc(c) => c.col(table, name),
            RowEnv::Vec(c) => c.col(table, name),
            RowEnv::Pair(c) => c.col(table, name),
        }
    }
}

/// `SHOW SLOW QUERIES`: the K worst traced queries by wall time, worst
/// first, with a compact rendering of each span tree. Queries that were
/// cancelled (deadline, kill, memory budget) carry `cancelled = 1` and a
/// `[cancelled]` marker in the tree.
fn show_slow_queries() -> ResultSet {
    let rows = lidardb_core::SlowQueryLog::global()
        .worst()
        .into_iter()
        .map(|q| {
            let cancelled = q
                .spans
                .iter()
                .any(|s| s.flags & lidardb_core::trace::FLAG_CANCELLED != 0);
            let tree = lidardb_core::TraceSink { spans: q.spans };
            vec![
                SqlValue::Int(q.trace_id as i64),
                SqlValue::Float(q.seconds),
                SqlValue::Float(q.queue_wait_seconds),
                SqlValue::Int(q.result_rows as i64),
                SqlValue::Int(i64::from(cancelled)),
                SqlValue::Int(tree.len() as i64),
                SqlValue::Str(tree.render_tree()),
            ]
        })
        .collect();
    ResultSet {
        columns: [
            "trace_id",
            "seconds",
            "queue_wait",
            "result_rows",
            "cancelled",
            "spans",
            "tree",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        trace: Vec::new(),
    }
}

/// `SHOW QUERIES`: queries currently in flight (process-wide registry).
fn show_queries() -> ResultSet {
    let rows = lidardb_core::QueryRegistry::global()
        .list()
        .into_iter()
        .map(|q| {
            vec![
                SqlValue::Int(q.id.0 as i64),
                SqlValue::Float(q.elapsed.as_secs_f64()),
                SqlValue::Str(q.detail),
                SqlValue::Int(i64::from(q.cancelled)),
            ]
        })
        .collect();
    ResultSet {
        columns: ["query_id", "elapsed_seconds", "detail", "cancelled"]
            .map(String::from)
            .to_vec(),
        rows,
        trace: Vec::new(),
    }
}

/// Evaluate an INSERT value: a numeric constant, optionally negated.
fn const_num(e: &Expr) -> Result<f64, SqlError> {
    match e {
        Expr::Number(v) => Ok(*v),
        Expr::Neg(inner) => Ok(-const_num(inner)?),
        other => Err(SqlError::Exec(format!(
            "INSERT values must be numeric constants, got {}",
            other.render()
        ))),
    }
}

/// Assign `v` to the named LAS column of `rec`, casting to the column's
/// physical type (the same narrowing the binary loader applies).
fn set_field(rec: &mut lidardb_las::PointRecord, name: &str, v: f64) -> Result<(), SqlError> {
    match name {
        "x" => rec.x = v,
        "y" => rec.y = v,
        "z" => rec.z = v,
        "intensity" => rec.intensity = v as u16,
        "return_number" => rec.return_number = v as u8,
        "number_of_returns" => rec.number_of_returns = v as u8,
        "scan_direction" => rec.scan_direction = v as u8,
        "edge_of_flight_line" => rec.edge_of_flight_line = v as u8,
        "classification" => rec.classification = v as u8,
        "synthetic" => rec.synthetic = v as u8,
        "key_point" => rec.key_point = v as u8,
        "withheld" => rec.withheld = v as u8,
        "scan_angle_rank" => rec.scan_angle_rank = v as i8,
        "user_data" => rec.user_data = v as u8,
        "point_source_id" => rec.point_source_id = v as u16,
        "gps_time" => rec.gps_time = v,
        "red" => rec.red = v as u16,
        "green" => rec.green = v as u16,
        "blue" => rec.blue = v as u16,
        "wave_packet_index" => rec.wave_packet_index = v as u8,
        "wave_offset" => rec.wave_offset = v as u64,
        "wave_size" => rec.wave_size = v as u32,
        "wave_return_loc" => rec.wave_return_loc = v as f32,
        "wave_xt" => rec.wave_xt = v as f32,
        "wave_yt" => rec.wave_yt = v as f32,
        "wave_zt" => rec.wave_zt = v as f32,
        other => {
            return Err(SqlError::Exec(format!(
                "unknown point column {other} in INSERT"
            )))
        }
    }
    Ok(())
}

/// `INSERT INTO t (cols) VALUES ...` against a streaming point-cloud
/// table. The batch is WAL-logged before it is applied; `durable = 1`
/// means the WAL acknowledged it (fsynced under the table's policy),
/// `durable = 0` means it rides in an open group commit. With a
/// `TOKEN <n>` clause the result gains a `deduped` column: `1` means the
/// token was already logged and the rows were NOT applied again (the
/// original insert is acknowledged instead — idempotent replay).
fn exec_insert(catalog: &Catalog, ins: &crate::ast::InsertStmt) -> Result<ResultSet, SqlError> {
    for (i, c) in ins.columns.iter().enumerate() {
        if ins.columns[..i].contains(c) {
            return Err(SqlError::Exec(format!("duplicate INSERT column {c}")));
        }
    }
    let mut recs = Vec::with_capacity(ins.rows.len());
    for row in &ins.rows {
        let mut rec = lidardb_las::PointRecord::default();
        for (c, e) in ins.columns.iter().zip(row) {
            set_field(&mut rec, c, const_num(e)?)?;
        }
        recs.push(rec);
    }
    let t0 = Instant::now();
    let mut pc = catalog.write_stream(&ins.table)?;
    let ack = pc
        .ingest_records_tagged(&recs, ins.token.unwrap_or(0))
        .map_err(|e| SqlError::Exec(format!("ingest into {}: {e}", ins.table)))?;
    drop(pc);
    let (columns, row) = if ins.token.is_some() {
        (
            ["inserted", "durable", "deduped"].map(String::from).to_vec(),
            vec![
                SqlValue::Int(ack.inserted as i64),
                SqlValue::Int(i64::from(ack.durable)),
                SqlValue::Int(i64::from(ack.deduped)),
            ],
        )
    } else {
        // Token-less inserts keep the original two-column shape.
        (
            ["inserted", "durable"].map(String::from).to_vec(),
            vec![
                SqlValue::Int(ack.inserted as i64),
                SqlValue::Int(i64::from(ack.durable)),
            ],
        )
    };
    Ok(ResultSet {
        columns,
        rows: vec![row],
        trace: vec![TraceEntry::new(
            format!("insert {}", ins.table),
            recs.len(),
            t0.elapsed().as_secs_f64(),
        )],
    })
}

/// `SHOW RECOVERY`: for every streaming table, the crash-recovery report
/// from its last open plus the live WAL/visibility state.
fn show_recovery(catalog: &Catalog) -> ResultSet {
    fn kv(table: &str, stat: &str, v: SqlValue) -> Vec<SqlValue> {
        vec![
            SqlValue::Str(table.to_string()),
            SqlValue::Str(stat.to_string()),
            v,
        ]
    }
    let mut rows = Vec::new();
    for name in catalog.stream_names() {
        let Ok(PcRead::Stream(pc)) = catalog.read_points(name) else {
            continue;
        };
        if let Some(rep) = pc.recovery_report() {
            rows.push(kv(name, "base_rows", SqlValue::Int(rep.base_rows as i64)));
            rows.push(kv(name, "wal_frames", SqlValue::Int(rep.wal_frames as i64)));
            rows.push(kv(
                name,
                "replayed_frames",
                SqlValue::Int(rep.replayed_frames as i64),
            ));
            rows.push(kv(
                name,
                "skipped_frames",
                SqlValue::Int(rep.skipped_frames as i64),
            ));
            rows.push(kv(
                name,
                "replayed_rows",
                SqlValue::Int(rep.replayed_rows as i64),
            ));
            rows.push(kv(
                name,
                "truncated_bytes",
                SqlValue::Int(rep.truncated_bytes as i64),
            ));
            rows.push(kv(name, "torn_tail", SqlValue::Int(i64::from(rep.torn_tail))));
            rows.push(kv(name, "recovery_seconds", SqlValue::Float(rep.seconds)));
        }
        if let Some(d) = pc.ingest_durability() {
            rows.push(kv(name, "durability", SqlValue::Str(d.name().to_string())));
        }
        if let Some(durable) = pc.durable_rows() {
            rows.push(kv(name, "durable_rows", SqlValue::Int(durable as i64)));
        }
        rows.push(kv(
            name,
            "visible_rows",
            SqlValue::Int(pc.visible_rows() as i64),
        ));
        rows.push(kv(
            name,
            "total_rows",
            SqlValue::Int(pc.num_points() as i64),
        ));
    }
    ResultSet {
        columns: ["table", "stat", "value"].map(String::from).to_vec(),
        rows,
        trace: Vec::new(),
    }
}

/// One-row acknowledgement result (session knobs, KILL).
fn ack(column: &str, value: SqlValue) -> ResultSet {
    ResultSet {
        columns: vec![column.to_string()],
        rows: vec![vec![value]],
        trace: Vec::new(),
    }
}

/// Execute a parsed statement against the catalog.
pub fn execute(catalog: &Catalog, stmt: &Statement) -> Result<ResultSet, SqlError> {
    let sel = match stmt {
        Statement::Select(sel) => sel,
        Statement::SetTrace(on) => {
            catalog.set_trace(*on);
            return Ok(ResultSet {
                columns: vec!["trace".to_string()],
                rows: vec![vec![SqlValue::Str(
                    if *on { "ON" } else { "OFF" }.to_string(),
                )]],
                trace: Vec::new(),
            });
        }
        Statement::SetStatementTimeout(ms) => {
            catalog.set_statement_timeout_ms(*ms);
            return Ok(ack("statement_timeout_ms", SqlValue::Int(*ms as i64)));
        }
        Statement::SetMemBudget(bytes) => {
            catalog.set_mem_budget_bytes(*bytes);
            return Ok(ack("mem_budget_bytes", SqlValue::Int(*bytes as i64)));
        }
        Statement::Kill(id) => {
            let hit = lidardb_core::QueryRegistry::global().kill(lidardb_core::QueryId(*id));
            return Ok(ack(
                "killed",
                SqlValue::Str(if hit { "OK" } else { "no such query" }.to_string()),
            ));
        }
        Statement::ShowQueries => return Ok(show_queries()),
        Statement::ShowSlowQueries => return Ok(show_slow_queries()),
        Statement::ShowRecovery => return Ok(show_recovery(catalog)),
        Statement::Insert(ins) => return exec_insert(catalog, ins),
    };
    // `sys.*` references get a scoped catalog clone with those virtual
    // tables materialised for this statement; everything downstream
    // (planner, projection, joins) treats them as ordinary vector tables.
    let sys_scope = crate::sys::scoped_catalog(catalog, sel)?;
    let catalog = sys_scope.as_ref().unwrap_or(catalog);
    // While session tracing is on, everything this statement runs — point
    // scans, join probes, aggregates — records spans (the guard drops
    // when execution finishes).
    let _trace_scope = catalog
        .trace_enabled()
        .then(lidardb_core::trace::force_thread);
    let plan = plan_select(catalog, sel)?;
    if sel.explain && !sel.analyze {
        let lines: Vec<Vec<SqlValue>> = plan
            .describe()
            .lines()
            .map(|l| vec![SqlValue::Str(l.to_string())])
            .collect();
        return Ok(ResultSet {
            columns: vec!["plan".to_string()],
            rows: lines,
            trace: Vec::new(),
        });
    }
    let t_exec = Instant::now();
    let mut trace = Vec::new();

    // Materialise input rows.
    let result = match &plan {
        Plan::PcScan(scan) => {
            let pc = catalog.read_points(&scan.table.name)?;
            // The permit and registry ticket cover the scan; residuals and
            // the projection below run after they are released.
            let rows = {
                let g = pc.govern(catalog, format!("select {}", scan.table.name))?;
                scan_rows(&pc, scan, catalog, &g.ctx, &mut trace)?
            };
            // Materialised execution evaluates rows lazily (aggregates,
            // ORDER BY), so every segment the rows touch stays pinned until
            // the projection is done.
            let runs: Vec<Run> = pc.runs(&rows).collect::<Result<_, _>>()?;
            let t0 = Instant::now();
            let mut envs = Vec::new();
            for run in &runs {
                let ctxs = run_ctxs(run, &scan.table.alias);
                if scan.residual.is_empty() {
                    // Every row survives: one exactly sized append.
                    envs.extend(ctxs.map(RowEnv::Pc));
                    continue;
                }
                for ctx in ctxs {
                    if passes(&scan.residual, &ctx)? {
                        envs.push(RowEnv::Pc(ctx));
                    }
                }
            }
            if !scan.residual.is_empty() {
                trace.push(TraceEntry::new(
                    "thematic filter",
                    envs.len(),
                    t0.elapsed().as_secs_f64(),
                ));
            }
            project(catalog, sel, &plan, envs, trace)
        }
        Plan::VecScan(scan) => {
            let Table::Vector(vt) = catalog.table(&scan.table.name)? else {
                unreachable!("bound as vector");
            };
            let vt = Arc::clone(vt);
            let t0 = Instant::now();
            let mut envs = Vec::new();
            for row in 0..vt.num_rows() {
                let ctx = VecCtx {
                    vt: &vt,
                    alias: &scan.table.alias,
                    row,
                };
                if passes(&scan.residual, &ctx)? {
                    envs.push(RowEnv::Vec(ctx));
                }
            }
            trace.push(TraceEntry::new(
                format!("vector scan {}", scan.table.alias),
                envs.len(),
                t0.elapsed().as_secs_f64(),
            ));
            project(catalog, sel, &plan, envs, trace)
        }
        Plan::SpatialJoin {
            pc: pc_scan,
            vec: vec_scan,
            join,
            pair_residual,
        } => {
            let pc = catalog.read_points(&pc_scan.table.name)?;
            let Table::Vector(vt) = catalog.table(&vec_scan.table.name)? else {
                unreachable!("bound as vector");
            };
            let vt = Arc::clone(vt);
            let feature = |row| VecCtx {
                vt: &vt,
                alias: &vec_scan.table.alias,
                row,
            };

            // Feature-side filter.
            let t0 = Instant::now();
            let mut features = Vec::new();
            for row in 0..vt.num_rows() {
                if passes(&vec_scan.residual, &feature(row))? {
                    features.push(row);
                }
            }
            trace.push(TraceEntry::new(
                format!("feature filter {}", vec_scan.table.alias),
                features.len(),
                t0.elapsed().as_secs_f64(),
            ));

            // One governed two-step probe per feature.
            let t0 = Instant::now();
            let geom_col = match join {
                JoinPred::DWithin { geom_col, .. } => geom_col,
                JoinPred::ContainsPoint { geom_col } => geom_col,
            };
            let mut probes: Vec<(usize, Vec<usize>)> = Vec::new();
            for &frow in &features {
                let g = match vt.value(geom_col, frow)? {
                    SqlValue::Geom(g) => g,
                    other => {
                        return Err(SqlError::Exec(format!(
                            "join column {geom_col} is {}, not GEOMETRY",
                            other.type_name()
                        )))
                    }
                };
                let pred = match join {
                    JoinPred::DWithin { dist, .. } => SpatialPredicate::DWithin(g, *dist),
                    JoinPred::ContainsPoint { .. } => SpatialPredicate::Within(g),
                };
                let g = pc.govern(catalog, format!("join probe {}", pc_scan.table.name))?;
                let sel =
                    pc.select(Some(&pred), &pc_scan.attr_ranges, catalog.parallelism(), &g.ctx)?;
                probes.push((frow, sel.rows));
            }
            trace.push(TraceEntry::new(
                format!("spatial join ({} probes)", features.len()),
                probes.iter().map(|(_, rows)| rows.len()).sum(),
                t0.elapsed().as_secs_f64(),
            ));

            // Point-side + pair residuals, over the segments the matched
            // rows live in (pinned until the projection is done).
            let t0 = Instant::now();
            let mut runs: Vec<(usize, Run)> = Vec::new();
            for (frow, rows) in &probes {
                for run in pc.runs(rows) {
                    runs.push((*frow, run?));
                }
            }
            let mut envs = Vec::new();
            for (frow, run) in &runs {
                for pc in run_ctxs(run, &pc_scan.table.alias) {
                    let ctx = PairCtx {
                        pc,
                        vec: feature(*frow),
                    };
                    if passes(&pc_scan.residual, &ctx)? && passes(pair_residual, &ctx)? {
                        envs.push(RowEnv::Pair(ctx));
                    }
                }
            }
            trace.push(TraceEntry::new(
                "pair filter",
                envs.len(),
                t0.elapsed().as_secs_f64(),
            ));
            project(catalog, sel, &plan, envs, trace)
        }
    }?;
    if sel.analyze {
        // EXPLAIN ANALYZE: the query ran for real above; render the plan
        // annotated with the observed per-operator cardinalities/timings.
        return Ok(analyze_result(
            &plan,
            result,
            t_exec.elapsed().as_secs_f64(),
        ));
    }
    Ok(result)
}

/// Build the `EXPLAIN ANALYZE` output: the planned operator tree followed
/// by the actual per-operator rows and wall-clock of the execution (the
/// same numbers the query's `Explain` carries — the trace
/// entries are derived from it in [`scan_rows`]).
fn analyze_result(plan: &Plan, executed: ResultSet, total_seconds: f64) -> ResultSet {
    let mut lines: Vec<String> = plan.describe().lines().map(str::to_string).collect();
    lines.push(String::new());
    lines.push("actual:".to_string());
    for t in &executed.trace {
        lines.push(format!(
            "  {:<36} rows={:<10} time={:.6}s",
            t.operator, t.rows, t.seconds
        ));
    }
    lines.push(format!(
        "  {:<36} rows={:<10} time={:.6}s",
        "total", executed.rows.len(), total_seconds
    ));
    ResultSet {
        columns: vec!["plan".to_string()],
        rows: lines
            .into_iter()
            .map(|l| vec![SqlValue::Str(l)])
            .collect(),
        trace: executed.trace,
    }
}

/// The select step every point-table path shares: global row ids of the
/// pushed-down predicates through the two-step engine under `ctx`, or
/// every visible row when nothing was pushed down. Appends the operator
/// trace derived from the query's `Explain`; on a tiled table it leads
/// with a `tile prune` line showing the zone-map skip/probe/load/evict
/// counts, so `EXPLAIN ANALYZE` makes tile pruning visible.
fn scan_rows(
    pc: &PcRead,
    scan: &crate::plan::PcScan,
    catalog: &Catalog,
    ctx: &GovernCtx,
    trace: &mut Vec<TraceEntry>,
) -> Result<Vec<usize>, SqlError> {
    if scan.spatial.is_none() && scan.attr_ranges.is_empty() {
        let t0 = Instant::now();
        let rows: Vec<usize> = (0..pc.visible_rows()).collect();
        trace.push(TraceEntry::new(
            "full scan",
            rows.len(),
            t0.elapsed().as_secs_f64(),
        ));
        return Ok(rows);
    }
    let sel = pc.select(
        scan.spatial.as_ref(),
        &scan.attr_ranges,
        catalog.parallelism(),
        ctx,
    )?;
    let e = &sel.explain;
    if e.tiles_total > 0 {
        let op = format!(
            "tile prune (zone maps: {} pruned, {} probed of {}; {} loaded, {} evicted)",
            e.tiles_pruned, e.tiles_probed, e.tiles_total, e.tiles_loaded, e.tiles_evicted
        );
        trace.push(TraceEntry::new(op, e.tiles_probed, 0.0));
    }
    if e.t_imprint_build > 0.0 {
        trace.push(TraceEntry::new("imprint build (lazy)", 0, e.t_imprint_build));
    }
    let op = match e.attr_probes {
        0 => "imprint filter".to_string(),
        n => format!("imprint filter (+{n} attribute probes)"),
    };
    trace.push(TraceEntry::new(op, e.after_imprints, e.t_imprints));
    trace.push(TraceEntry::new("exact bbox scan", e.after_bbox, e.t_bbox));
    let op = format!(
        "grid refinement (cells {}/{}/{})",
        e.cells_inside, e.cells_outside, e.cells_boundary
    );
    trace.push(TraceEntry::new(op, e.result_rows, e.t_refine));
    Ok(sel.rows)
}

/// Expand the projection list against the plan's tables.
fn output_items(
    catalog: &Catalog,
    sel: &SelectStmt,
    plan: &Plan,
) -> Result<Vec<(String, Expr)>, SqlError> {
    let tables: Vec<&crate::plan::BoundTable> = match plan {
        Plan::PcScan(p) => vec![&p.table],
        Plan::VecScan(v) => vec![&v.table],
        Plan::SpatialJoin { pc, vec, .. } => vec![&pc.table, &vec.table],
    };
    let mut out = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => {
                for t in &tables {
                    for col in catalog.columns_of(&t.name)? {
                        out.push((
                            col.clone(),
                            Expr::Column {
                                table: Some(t.alias.clone()),
                                name: col,
                            },
                        ));
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| expr.render());
                out.push((name, expr.clone()));
            }
        }
    }
    Ok(out)
}

/// Aggregate-aware evaluation of one select item over a group.
fn eval_agg(e: &Expr, group: &[&RowEnv]) -> Result<SqlValue, SqlError> {
    if !e.has_aggregate() {
        // Group key expression: evaluate on the first row (constants still
        // evaluate when the global group is empty).
        return match group.first() {
            Some(first) => eval(e, *first),
            None => eval_const(e),
        };
    }
    match e {
        Expr::CountStar => Ok(SqlValue::Int(group.len() as i64)),
        Expr::Func { name, args } if is_aggregate(name) => {
            if args.len() != 1 {
                return Err(SqlError::Exec(format!("{name} expects one argument")));
            }
            let mut vals = Vec::with_capacity(group.len());
            for env in group {
                let v = eval(&args[0], *env)?;
                if !v.is_null() {
                    vals.push(v);
                }
            }
            match name.as_str() {
                "COUNT" => Ok(SqlValue::Int(vals.len() as i64)),
                _ if vals.is_empty() => Ok(SqlValue::Null),
                "SUM" => {
                    let mut s = 0.0;
                    for v in &vals {
                        s += v.as_f64()?;
                    }
                    Ok(SqlValue::Float(s))
                }
                "AVG" => {
                    let mut s = 0.0;
                    for v in &vals {
                        s += v.as_f64()?;
                    }
                    Ok(SqlValue::Float(s / vals.len() as f64))
                }
                "MIN" | "MAX" => {
                    let mut best = vals[0].clone();
                    for v in &vals[1..] {
                        let ord = v.compare(&best).ok_or_else(|| {
                            SqlError::Exec("incomparable values in MIN/MAX".into())
                        })?;
                        let take = if name == "MIN" {
                            ord.is_lt()
                        } else {
                            ord.is_gt()
                        };
                        if take {
                            best = v.clone();
                        }
                    }
                    Ok(best)
                }
                _ => unreachable!("is_aggregate matched"),
            }
        }
        Expr::Binary { op, left, right } => {
            let l = eval_agg(left, group)?;
            let r = eval_agg(right, group)?;
            apply_binop(*op, l, r)
        }
        Expr::Neg(inner) => match eval_agg(inner, group)? {
            SqlValue::Null => Ok(SqlValue::Null),
            SqlValue::Int(v) => Ok(SqlValue::Int(-v)),
            v => Ok(SqlValue::Float(-v.as_f64()?)),
        },
        Expr::Func { name, args } => {
            let vals: Vec<SqlValue> = args
                .iter()
                .map(|a| eval_agg(a, group))
                .collect::<Result<_, _>>()?;
            functions::call(name, &vals)
        }
        other => Err(SqlError::Exec(format!(
            "unsupported aggregate expression {}",
            other.render()
        ))),
    }
}

/// Projection, aggregation, ordering, limiting.
fn project(
    catalog: &Catalog,
    sel: &SelectStmt,
    plan: &Plan,
    envs: Vec<RowEnv>,
    mut trace: Vec<TraceEntry>,
) -> Result<ResultSet, SqlError> {
    let t0 = Instant::now();
    let items = output_items(catalog, sel, plan)?;
    let needs_agg = !sel.group_by.is_empty()
        || sel.having.is_some()
        || items.iter().any(|(_, e)| e.has_aggregate());
    let columns: Vec<String> = items.iter().map(|(n, _)| n.clone()).collect();

    let mut rows: Vec<Vec<SqlValue>> = Vec::new();
    if needs_agg {
        if items
            .iter()
            .any(|(_, e)| matches!(e, Expr::Column { .. }))
            && sel.group_by.is_empty()
        {
            return Err(SqlError::Exec(
                "plain columns mixed with aggregates need GROUP BY".into(),
            ));
        }
        // Group rows.
        let mut groups: Vec<(String, Vec<&RowEnv>)> = Vec::new();
        let mut index: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
        for env in &envs {
            let mut key = String::new();
            for g in &sel.group_by {
                key.push_str(&eval(g, env)?.group_key());
                key.push('\u{1}');
            }
            match index.get(&key) {
                Some(&i) => groups[i].1.push(env),
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key, vec![env]));
                }
            }
        }
        if groups.is_empty() && sel.group_by.is_empty() {
            // Aggregates over an empty input: one empty global group, so
            // COUNT(*) = 0, other aggregates are NULL, and HAVING still
            // applies.
            groups.push((String::new(), Vec::new()));
        }
        for (_, group) in &groups {
            if let Some(h) = &sel.having {
                if !truthy(&eval_agg(h, group)?) {
                    continue;
                }
            }
            let mut row = Vec::new();
            for (_, e) in &items {
                row.push(eval_agg(e, group)?);
            }
            rows.push(row);
        }
    } else {
        for env in &envs {
            let mut row = Vec::with_capacity(items.len());
            for (_, e) in &items {
                row.push(eval(e, env)?);
            }
            rows.push(row);
        }
    }
    if sel.distinct {
        let mut seen = std::collections::HashSet::new();
        rows.retain(|row| {
            let key: String = row
                .iter()
                .map(|v| v.group_key())
                .collect::<Vec<_>>()
                .join("\u{1}");
            seen.insert(key)
        });
    }
    trace.push(TraceEntry::new(
        if needs_agg { "aggregate + project" } else { "project" },
        rows.len(),
        t0.elapsed().as_secs_f64(),
    ));

    // ORDER BY: resolve each key against the output columns.
    if !sel.order_by.is_empty() {
        let t0 = Instant::now();
        let mut keys = Vec::new();
        for (e, asc) in &sel.order_by {
            let idx = resolve_output_column(e, &items)?;
            keys.push((idx, *asc));
        }
        rows.sort_by(|a, b| {
            for &(idx, asc) in &keys {
                let ord = a[idx]
                    .compare(&b[idx])
                    .unwrap_or(std::cmp::Ordering::Equal);
                let ord = if asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        trace.push(TraceEntry::new("sort", rows.len(), t0.elapsed().as_secs_f64()));
    }
    if let Some(limit) = sel.limit {
        rows.truncate(limit as usize);
    }
    Ok(ResultSet {
        columns,
        rows,
        trace,
    })
}

// ---------------------------------------------------------------------------
// Streamed execution
// ---------------------------------------------------------------------------

/// Default rows per streamed batch. Small enough that one batch of wide
/// rows stays a few hundred kilobytes on the wire; large enough that the
/// per-batch framing and cancellation checks are noise.
pub const STREAM_BATCH_ROWS: usize = 4096;

/// One column of a [`ColumnBatch`]: typed when every value is a float or
/// every value is an integer, tagged values otherwise.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnChunk {
    /// Every value is a [`SqlValue::Float`].
    Float(Vec<f64>),
    /// Every value is a [`SqlValue::Int`].
    Int(Vec<i64>),
    /// Anything else: NULLs, text, geometry, mixed types.
    Values(Vec<SqlValue>),
}

impl ColumnChunk {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnChunk::Float(v) => v.len(),
            ColumnChunk::Int(v) => v.len(),
            ColumnChunk::Values(v) => v.len(),
        }
    }

    /// Whether the chunk holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value `i`.
    fn get(&self, i: usize) -> SqlValue {
        match self {
            ColumnChunk::Float(v) => SqlValue::Float(v[i]),
            ColumnChunk::Int(v) => SqlValue::Int(v[i]),
            ColumnChunk::Values(v) => v[i].clone(),
        }
    }

    /// Append one value, turning a typed chunk into `Values` when `v` does
    /// not fit it.
    fn push(&mut self, v: SqlValue) {
        match (&mut *self, v) {
            (ColumnChunk::Float(out), SqlValue::Float(x)) => out.push(x),
            (ColumnChunk::Int(out), SqlValue::Int(x)) => out.push(x),
            (ColumnChunk::Values(out), v) => out.push(v),
            (chunk, v) => {
                let mut vals: Vec<SqlValue> = (0..chunk.len()).map(|i| chunk.get(i)).collect();
                vals.push(v);
                *chunk = ColumnChunk::Values(vals);
            }
        }
    }
}

/// A column-major batch: one chunk of `rows` values per output column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBatch {
    /// Rows in the batch.
    pub rows: usize,
    /// One chunk per output column, in output order.
    pub columns: Vec<ColumnChunk>,
}

impl ColumnBatch {
    /// The same values row-major.
    pub fn to_rows(&self) -> Vec<Vec<SqlValue>> {
        (0..self.rows)
            .map(|i| self.columns.iter().map(|c| c.get(i)).collect())
            .collect()
    }
}

/// Where [`execute_streamed`] delivers its output: a header once, then
/// zero or more batches — column-major [`ColumnBatch`]es from a native
/// point-table scan, row batches from materialised results. A sink that
/// blocks in [`RowSink::batch`] or [`RowSink::columns`] (e.g. a socket
/// write against a slow client) backpressures the whole statement — no
/// more rows are produced until the batch is taken.
///
/// Any method may fail (a network sink fails when the peer hangs up);
/// the statement aborts and its governance state (admission permit, query
/// registry ticket) unwinds via RAII.
pub trait RowSink {
    /// Called exactly once, before any batch, with the output column names
    /// and the statement's [`CancelToken`](lidardb_core::CancelToken). A
    /// server can clone the token and trip it from another thread (e.g. a
    /// disconnect watcher) to cancel the statement at its next checkpoint.
    fn start(
        &mut self,
        columns: &[String],
        token: &lidardb_core::CancelToken,
    ) -> Result<(), SqlError>;

    /// Deliver one batch of rows (never empty).
    fn batch(&mut self, rows: Vec<Vec<SqlValue>>) -> Result<(), SqlError>;

    /// Deliver one column-major batch (never empty). By default the same
    /// values go to [`RowSink::batch`] as rows.
    fn columns(&mut self, batch: ColumnBatch) -> Result<(), SqlError> {
        self.batch(batch.to_rows())
    }
}

/// Outcome of a streamed statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Total rows delivered across all batches.
    pub rows: usize,
    /// Number of [`RowSink::batch`] and [`RowSink::columns`] calls.
    pub batches: usize,
}

/// Append rows `ids` (global ids; the segment starts at `base`) of one
/// storage column to `chunk`, converted as [`from_storage`] converts: a
/// `u64` above `i64::MAX` becomes a float and the chunk `Values`.
fn gather<T: Native>(v: &[T], base: usize, ids: &[usize], chunk: &mut ColumnChunk) {
    let float = T::PHYS.is_float();
    if chunk.is_empty() {
        *chunk = if float {
            ColumnChunk::Float(Vec::new())
        } else {
            ColumnChunk::Int(Vec::new())
        };
    }
    let vals = ids.iter().map(|&r| v[r - base]);
    match chunk {
        ColumnChunk::Float(out) if float => out.extend(vals.map(T::to_f64)),
        ColumnChunk::Int(out) if !float && T::PHYS != PhysicalType::U64 => {
            out.extend(vals.map(|x| x.to_value().as_i64()))
        }
        _ => vals.for_each(|x| chunk.push(from_storage(x.to_value()))),
    }
}

/// Execute a parsed statement, delivering rows to `sink` in batches of at
/// most `batch_rows` instead of materialising a [`ResultSet`].
///
/// A point-table scan — flat, streaming or tiled — without aggregation /
/// ordering / `DISTINCT` streams natively into [`RowSink::columns`] and
/// never builds a row: the two-step engine produces row *ids*; per batch
/// the residual filters them, plain column items are gathered from typed
/// storage and other items evaluated per row. Batches hold exactly
/// `batch_rows` rows across tile boundaries (the last may be shorter), so
/// the result set never exists in memory on this side and a tiled table
/// keeps one tile pinned at a time. The admission permit and registry
/// ticket are held for the whole statement — scan *and* delivery — so a
/// slow consumer occupies an in-flight slot exactly like a slow scan, and
/// `KILL <id>` / statement timeouts fire between batches.
///
/// Everything else (aggregates, ORDER BY, joins, vector tables, SET/SHOW/
/// INSERT) falls back to [`execute`] and re-chunks the materialised
/// result into [`RowSink::batch`] calls.
pub fn execute_streamed(
    catalog: &Catalog,
    stmt: &Statement,
    batch_rows: usize,
    sink: &mut dyn RowSink,
) -> Result<StreamSummary, SqlError> {
    let batch_rows = batch_rows.max(1);
    let sel = match stmt {
        Statement::Select(sel)
            if !sel.explain
                && !sel.distinct
                && sel.group_by.is_empty()
                && sel.having.is_none()
                && sel.order_by.is_empty() =>
        {
            sel
        }
        _ => return stream_materialised(catalog, stmt, batch_rows, sink),
    };
    // `sys.*` scans stream like any vector table: materialise them on a
    // scoped catalog before planning, then ride the materialised fallback.
    let sys_scope = crate::sys::scoped_catalog(catalog, sel)?;
    let catalog = sys_scope.as_ref().unwrap_or(catalog);
    let _trace_scope = catalog
        .trace_enabled()
        .then(lidardb_core::trace::force_thread);
    let plan = plan_select(catalog, sel)?;
    let Plan::PcScan(scan) = &plan else {
        return stream_materialised(catalog, stmt, batch_rows, sink);
    };
    let items = output_items(catalog, sel, &plan)?;
    if items.iter().any(|(_, e)| e.has_aggregate()) {
        return stream_materialised(catalog, stmt, batch_rows, sink);
    }
    let columns: Vec<String> = items.iter().map(|(n, _)| n.clone()).collect();
    let alias = scan.table.alias.as_str();
    let empty_batch = || ColumnBatch {
        rows: 0,
        columns: vec![ColumnChunk::Values(Vec::new()); items.len()],
    };

    // Statement-lifetime governance: the permit and the registry ticket
    // are held until this function returns — across the scan AND the
    // backpressured delivery. A server streaming to a slow client holds
    // its in-flight slot the whole time, which is exactly the point.
    let pc = catalog.read_points(&scan.table.name)?;
    let g = pc.govern(catalog, format!("stream select {}", scan.table.name))?;
    let token = g.ctx.token();

    // Row ids via the two-step engine (pushdown only); segments are
    // resolved, residuals applied and columns gathered per batch below.
    let row_ids = scan_rows(&pc, scan, catalog, &g.ctx, &mut Vec::new())?;

    sink.start(&columns, token)?;
    let limit = sel.limit.map(|l| l as usize).unwrap_or(usize::MAX);
    let (mut emitted, mut batches) = (0usize, 0usize);
    let mut out = empty_batch();
    let mut kept = Vec::new();
    let mut runs = pc.runs(&row_ids);
    while emitted < limit {
        let Some(run) = runs.next() else { break };
        let (seg, base, mut rest) = run?;
        let ctx = |r: usize| PcCtx { pc: &seg, alias, row: r - base };
        while !rest.is_empty() && emitted < limit {
            // The ids of this step: as many as fill the batch (or reach
            // the limit), after the residual.
            let want = (batch_rows - out.rows).min(limit - emitted);
            let ids: &[usize] = if scan.residual.is_empty() {
                let (now, later) = rest.split_at(want.min(rest.len()));
                rest = later;
                now
            } else {
                kept.clear();
                while let Some((&r, later)) = rest.split_first().filter(|_| kept.len() < want) {
                    rest = later;
                    if passes(&scan.residual, &ctx(r))? {
                        kept.push(r);
                    }
                }
                &kept
            };
            if ids.is_empty() {
                continue;
            }
            // Plain columns are gathered from typed storage, anything else
            // is evaluated per row.
            for ((_, e), chunk) in items.iter().zip(&mut out.columns) {
                match e {
                    Expr::Column { table, name } if table.as_deref().is_none_or(|t| t == alias) => {
                        for_each_variant!(seg.column(name)?, v => gather(v, base, ids, chunk))
                    }
                    _ => {
                        for &r in ids {
                            chunk.push(eval(e, &ctx(r))?);
                        }
                    }
                }
            }
            out.rows += ids.len();
            emitted += ids.len();
            if out.rows == batch_rows {
                sink.columns(std::mem::replace(&mut out, empty_batch()))?;
                batches += 1;
                // Deadline / KILL / disconnect-trip land between batches, so
                // a cancelled stream stops within one batch of the signal.
                token.check(emitted)?;
            }
        }
    }
    if out.rows > 0 {
        sink.columns(out)?;
        batches += 1;
    }
    Ok(StreamSummary {
        rows: emitted,
        batches,
    })
}

/// Fallback for statements that cannot stream natively: run [`execute`]
/// (which applies its own per-scan governance) and re-chunk the
/// materialised rows. The token handed to the sink is observational only —
/// tripping it stops delivery between batches but cannot interrupt the
/// already-finished execution.
fn stream_materialised(
    catalog: &Catalog,
    stmt: &Statement,
    batch_rows: usize,
    sink: &mut dyn RowSink,
) -> Result<StreamSummary, SqlError> {
    let rs = execute(catalog, stmt)?;
    let token = lidardb_core::CancelToken::new();
    sink.start(&rs.columns, &token)?;
    let rows = rs.rows.len();
    let mut batches = 0usize;
    let mut iter = rs.rows.into_iter();
    loop {
        let chunk: Vec<Vec<SqlValue>> = iter.by_ref().take(batch_rows).collect();
        if chunk.is_empty() {
            break;
        }
        sink.batch(chunk)?;
        batches += 1;
        token.check(batches * batch_rows)?;
    }
    Ok(StreamSummary { rows, batches })
}

/// Find the output column an ORDER BY expression refers to: by alias, by
/// column name, by rendered text, or by 1-based ordinal.
fn resolve_output_column(e: &Expr, items: &[(String, Expr)]) -> Result<usize, SqlError> {
    if let Expr::Number(v) = e {
        let idx = *v as usize;
        if *v >= 1.0 && v.fract() == 0.0 && idx <= items.len() {
            return Ok(idx - 1);
        }
        return Err(SqlError::Exec(format!("ORDER BY ordinal {v} out of range")));
    }
    let rendered = e.render();
    for (i, (name, expr)) in items.iter().enumerate() {
        if *name == rendered || expr.render() == rendered {
            return Ok(i);
        }
        if let Expr::Column { table: None, name: n } = e {
            if name == n {
                return Ok(i);
            }
            if let Expr::Column { name: cn, .. } = expr {
                if cn == n {
                    return Ok(i);
                }
            }
        }
    }
    Err(SqlError::Exec(format!(
        "ORDER BY expression {rendered} is not an output column"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_eval() {
        let e = crate::parser::parse("SELECT 1 + 2 * 3 FROM t").unwrap();
        let Statement::Select(s) = e else { panic!() };
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        assert_eq!(eval_const(expr).unwrap(), SqlValue::Int(7));
    }

    #[test]
    fn null_semantics() {
        // Direct AST: NULL via empty MIN over nothing is awkward; test the
        // building blocks instead.
        assert!(truthy(&SqlValue::Bool(true)));
        assert!(!truthy(&SqlValue::Bool(false)));
        assert!(!truthy(&SqlValue::Null));
    }

    #[test]
    fn result_set_rendering() {
        let rs = ResultSet {
            columns: vec!["a".into(), "long_name".into()],
            rows: vec![
                vec![SqlValue::Int(1), SqlValue::Str("hi".into())],
                vec![SqlValue::Float(2.5), SqlValue::Null],
            ],
            trace: vec![TraceEntry {
                operator: "scan".into(),
                rows: 2,
                seconds: 0.001,
            }],
        };
        let t = rs.render();
        assert!(t.contains("| a   | long_name |"));
        assert!(t.contains("2 row(s)"));
        let tr = rs.render_trace();
        assert!(tr.contains("scan"));
    }
}
