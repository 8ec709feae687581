//! Expression evaluation and plan execution: one statement pipeline
//! ([`execute_streamed`], batches into a [`RowSink`]) that [`execute`]
//! collects into a [`ResultSet`]. A SELECT is planned, shaped and governed
//! once, then runs one arm: the typed fold, the native column stream or
//! the row path.
//!
//! An aggregate statement without `GROUP BY` over a point table or a
//! spatial join, whose aggregates are `COUNT(*)` or `COUNT`/`SUM`/`AVG`/
//! `MIN`/`MAX` of a plain point-side column, is a *typed fold*
//! (`typed_fold`): the select's row ids, after the residual, go straight
//! into the engine's aggregate kernel (`core::exec`) and no row is built
//! per point. Every other aggregate runs on the row path (`project`),
//! whose `SUM`/`AVG` accumulate in the same compensated `AggState`.

use std::time::Instant;

use lidardb_core::soa::ColumnArrays;
use lidardb_core::{
    Aggregate, CancelToken, ColumnSet, Explain, GovernCtx, PointCloud, PointTable, RefineStrategy,
    Run, SpatialPredicate,
};
use lidardb_storage::scan::AggState;
use lidardb_storage::{for_each_variant, Native, PhysicalType, Value};

use crate::ast::{BinOp, Expr, SelectItem, SelectStmt, Statement};
use crate::catalog::{Catalog, PcRead, Table, VectorTable};
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

#[derive(Clone, Copy)]
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

#[derive(Clone, Copy)]
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
        Expr::Binary { op, left, right } => match op {
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
            _ => apply_binop(*op, eval(left, ctx)?, eval(right, ctx)?),
        },
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
    let columns = [
        "trace_id",
        "seconds",
        "queue_wait",
        "result_rows",
        "cancelled",
        "spans",
        "tree",
    ];
    untraced(&columns, rows)
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
    untraced(
        &["query_id", "elapsed_seconds", "detail", "cancelled"],
        rows,
    )
}

/// `INSERT INTO t (cols) VALUES ...` against a streaming point-cloud
/// table. The batch is WAL-logged before it is applied; `durable = 1`
/// means the WAL acknowledged it (fsynced under the table's policy),
/// `durable = 0` means it rides in an open group commit. With a
/// `TOKEN <n>` clause the result gains a `deduped` column: `1` means the
/// token was already logged and the rows were NOT applied again (the
/// original insert is acknowledged instead — idempotent replay).
fn exec_insert(catalog: &Catalog, ins: &crate::ast::InsertStmt) -> Result<ResultSet, SqlError> {
    // Each listed name resolves to its schema slot once per statement.
    let mut source = [None; lidardb_las::NUM_COLUMNS];
    for (j, c) in ins.columns.iter().enumerate() {
        let slot = lidardb_las::COLUMN_NAMES
            .iter()
            .position(|n| n == c)
            .ok_or_else(|| SqlError::Exec(format!("unknown point column {c} in INSERT")))?;
        if source[slot].replace(j).is_some() {
            return Err(SqlError::Exec(format!("duplicate INSERT column {c}")));
        }
    }
    // Each cell narrows to its column's physical type with `as` semantics
    // (`Native::from_f64`: saturating, NaN to 0), the cast the binary
    // loader applies; an unlisted column is all zeros, the LAS default.
    let rows = ins.values.first().map_or(0, Vec::len);
    let columns = lidardb_las::schema::COLUMN_TYPES
        .iter()
        .zip(source)
        .map(|(&ty, src)| {
            let mut col = lidardb_storage::Column::with_capacity(ty, rows);
            match src {
                Some(j) => for_each_variant!(&mut col, v => narrow_into(v, &ins.values[j])),
                None => for_each_variant!(&mut col, v => v.resize(rows, Native::from_f64(0.0))),
            }
            col
        })
        .collect();
    let batch = ColumnArrays::from_columns(columns)
        .map_err(|e| SqlError::Exec(format!("insert into {}: {e}", ins.table)))?;
    let t0 = Instant::now();
    let mut pc = catalog.write_stream(&ins.table)?;
    let ack = pc
        .ingest_columns_tagged(batch, ins.token.unwrap_or(0))
        .map_err(|e| SqlError::Exec(format!("ingest into {}: {e}", ins.table)))?;
    drop(pc);
    let row = vec![
        SqlValue::Int(ack.inserted as i64),
        SqlValue::Int(i64::from(ack.durable)),
        SqlValue::Int(i64::from(ack.deduped)),
    ];
    let mut rs = untraced(&["inserted", "durable", "deduped"], vec![row]);
    if ins.token.is_none() {
        // Token-less inserts keep the original two-column shape.
        rs.columns.pop();
        rs.rows[0].pop();
    }
    let op = format!("insert {}", ins.table);
    rs.trace
        .push(TraceEntry::new(op, rows, t0.elapsed().as_secs_f64()));
    Ok(rs)
}

/// Append `values`, each narrowed to `T` (see [`exec_insert`]).
fn narrow_into<T: Native>(col: &mut Vec<T>, values: &[f64]) {
    col.extend(values.iter().map(|&v| T::from_f64(v)));
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
            rows.push(kv(
                name,
                "torn_tail",
                SqlValue::Int(i64::from(rep.torn_tail)),
            ));
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
    untraced(&["table", "stat", "value"], rows)
}

/// A result without operator trace.
fn untraced(columns: &[&str], rows: Vec<Vec<SqlValue>>) -> ResultSet {
    let columns = columns.iter().map(|c| c.to_string()).collect();
    ResultSet {
        columns,
        rows,
        trace: Vec::new(),
    }
}

/// One-row acknowledgement result (session knobs, KILL).
fn ack(column: &str, value: SqlValue) -> ResultSet {
    untraced(&[column], vec![vec![value]])
}

/// Execute a parsed statement and collect its result: a collecting
/// [`RowSink`] over the one statement pipeline [`execute_streamed`] runs,
/// which keeps every row and the operator trace.
pub fn execute(catalog: &Catalog, stmt: &Statement) -> Result<ResultSet, SqlError> {
    let mut out = Collect::default();
    let mut trace = Vec::new();
    run(catalog, stmt, STREAM_BATCH_ROWS, &mut out, &mut trace)?;
    Ok(ResultSet {
        columns: out.columns,
        rows: out.rows,
        trace,
    })
}

/// The sink behind [`execute`]: the columns and every row, in order.
#[derive(Default)]
struct Collect {
    columns: Vec<String>,
    rows: Vec<Vec<SqlValue>>,
}

impl RowSink for Collect {
    fn start(&mut self, columns: &[String], _: &CancelToken) -> Result<(), SqlError> {
        self.columns = columns.to_vec();
        Ok(())
    }

    fn batch(&mut self, rows: Vec<Vec<SqlValue>>) -> Result<(), SqlError> {
        self.rows.extend(rows);
        Ok(())
    }
}

/// The sink `EXPLAIN ANALYZE` runs its statement into: the pipeline's
/// summary counts the rows, the rows themselves are dropped.
struct Discard;

impl RowSink for Discard {
    fn start(&mut self, _: &[String], _: &CancelToken) -> Result<(), SqlError> {
        Ok(())
    }

    fn batch(&mut self, _: Vec<Vec<SqlValue>>) -> Result<(), SqlError> {
        Ok(())
    }

    fn columns(&mut self, _: ColumnBatch) -> Result<(), SqlError> {
        Ok(())
    }
}

/// The one statement pipeline behind [`execute`] and [`execute_streamed`].
/// A SELECT is scoped, planned once and handed to [`select`]; every other
/// statement, plain `EXPLAIN` and the rendered `EXPLAIN ANALYZE` run to
/// completion and then emit. Operator timings go to `trace`.
fn run(
    catalog: &Catalog,
    stmt: &Statement,
    batch_rows: usize,
    sink: &mut dyn RowSink,
    trace: &mut Vec<TraceEntry>,
) -> Result<StreamSummary, SqlError> {
    let rs = match stmt {
        Statement::Select(sel) => return explain_or_select(catalog, sel, batch_rows, sink, trace),
        Statement::SetTrace(on) => {
            catalog.set_trace(*on);
            ack(
                "trace",
                SqlValue::Str(if *on { "ON" } else { "OFF" }.to_string()),
            )
        }
        Statement::SetStatementTimeout(ms) => {
            catalog.set_statement_timeout_ms(*ms);
            ack("statement_timeout_ms", SqlValue::Int(*ms as i64))
        }
        Statement::SetMemBudget(bytes) => {
            catalog.set_mem_budget_bytes(*bytes);
            ack("mem_budget_bytes", SqlValue::Int(*bytes as i64))
        }
        Statement::Kill(id) => {
            let hit = lidardb_core::QueryRegistry::global().kill(lidardb_core::QueryId(*id));
            let reply = if hit { "OK" } else { "no such query" };
            ack("killed", SqlValue::Str(reply.to_string()))
        }
        Statement::ShowQueries => show_queries(),
        Statement::ShowSlowQueries => show_slow_queries(),
        Statement::ShowRecovery => show_recovery(catalog),
        Statement::Insert(ins) => exec_insert(catalog, ins)?,
    };
    emit(rs, batch_rows, sink, trace)
}

/// A SELECT, `EXPLAIN` or `EXPLAIN ANALYZE`: scope the `sys.*` tables, set
/// up the trace scope and plan — once — then run the statement into `sink`
/// or, for `EXPLAIN ANALYZE`, into a [`Discard`] sink followed by the plan
/// annotated with the observed per-operator cardinalities and timings.
fn explain_or_select(
    catalog: &Catalog,
    sel: &SelectStmt,
    batch_rows: usize,
    sink: &mut dyn RowSink,
    trace: &mut Vec<TraceEntry>,
) -> Result<StreamSummary, SqlError> {
    // `sys.*` references get a scoped catalog clone with those virtual
    // tables materialised for this statement; everything downstream
    // (planner, projection, joins) treats them as ordinary vector tables.
    let sys_scope = crate::sys::scoped_catalog(catalog, sel)?;
    let catalog = sys_scope.as_ref().unwrap_or(catalog);
    // While session tracing is on, everything this statement runs — point
    // scans, join probes, aggregates, delivery — records spans.
    let _trace_scope = catalog
        .trace_enabled()
        .then(lidardb_core::trace::force_thread);
    let plan = plan_select(catalog, sel)?;
    if !sel.explain {
        return select(catalog, sel, &plan, batch_rows, sink, trace);
    }
    let mut lines: Vec<String> = plan.describe().lines().map(str::to_string).collect();
    if sel.analyze {
        let t0 = Instant::now();
        let done = select(catalog, sel, &plan, batch_rows, &mut Discard, trace)?;
        let total = TraceEntry::new("total", done.rows, t0.elapsed().as_secs_f64());
        lines.push(String::new());
        lines.push("actual:".to_string());
        for t in trace.iter().chain([&total]) {
            let (op, rows, secs) = (&t.operator, t.rows, t.seconds);
            lines.push(format!("  {op:<36} rows={rows:<10} time={secs:.6}s"));
        }
    }
    let rows = lines.into_iter().map(|l| vec![SqlValue::Str(l)]).collect();
    emit(untraced(&["plan"], rows), batch_rows, sink, trace)
}

/// Deliver a result that ran to completion under a token of its own.
fn emit(
    rs: ResultSet,
    batch_rows: usize,
    sink: &mut dyn RowSink,
    trace: &mut Vec<TraceEntry>,
) -> Result<StreamSummary, SqlError> {
    let token = CancelToken::new();
    sink.start(&rs.columns, &token)?;
    trace.extend(rs.trace);
    deliver(rs.rows, batch_rows, sink, &token)
}

/// Hand finished rows to `sink` in batches of `batch_rows`, checking
/// `token` between batches so a deadline or a hang-up stops delivery.
fn deliver(
    rows: Vec<Vec<SqlValue>>,
    batch_rows: usize,
    sink: &mut dyn RowSink,
    token: &CancelToken,
) -> Result<StreamSummary, SqlError> {
    let summary = StreamSummary {
        rows: rows.len(),
        batches: rows.len().div_ceil(batch_rows),
    };
    let mut rows = rows.into_iter();
    for sent in 0..summary.batches {
        if sent > 0 {
            token.check(sent * batch_rows)?;
        }
        sink.batch(rows.by_ref().take(batch_rows).collect())?;
    }
    Ok(summary)
}

/// A planned SELECT whose shape has been checked: what every arm reads.
struct Shaped<'a> {
    catalog: &'a Catalog,
    sel: &'a SelectStmt,
    plan: &'a Plan,
    /// The output items, `*` expanded against the plan's tables.
    items: Vec<(String, Expr)>,
    /// Whether the statement aggregates (`GROUP BY`, `HAVING` or an
    /// aggregate call among the items).
    grouped: bool,
    /// `ORDER BY` as (output column, ascending).
    order: Vec<(usize, bool)>,
    /// The point columns the statement reads beyond its pushed-down
    /// predicates: those of the items, residuals, `GROUP BY`, `ORDER BY`
    /// and `HAVING`. Every [`PointTable::runs`] call faults in this set.
    columns: ColumnSet,
}

/// Expand the output items and check the statement's shape. Every error
/// raised here comes before any frame is sent.
fn shape<'a>(
    catalog: &'a Catalog,
    sel: &'a SelectStmt,
    plan: &'a Plan,
) -> Result<Shaped<'a>, SqlError> {
    let items = output_items(catalog, sel, plan)?;
    let grouped = !sel.group_by.is_empty()
        || sel.having.is_some()
        || items.iter().any(|(_, e)| e.has_aggregate());
    let bare_column = items.iter().any(|(_, e)| matches!(e, Expr::Column { .. }));
    if grouped && bare_column && sel.group_by.is_empty() {
        return Err(SqlError::Exec(
            "plain columns mixed with aggregates need GROUP BY".into(),
        ));
    }
    let order = sel
        .order_by
        .iter()
        .map(|(e, asc)| Ok((resolve_output_column(e, &items)?, *asc)));
    let residuals: Vec<&Expr> = match plan {
        Plan::PcScan(scan) => scan.residual.iter().collect(),
        Plan::SpatialJoin {
            pc, pair_residual, ..
        } => pc.residual.iter().chain(pair_residual).collect(),
        Plan::VecScan(_) => Vec::new(),
    };
    let exprs = items.iter().map(|(_, e)| e).chain(residuals);
    let order_by = sel.order_by.iter().map(|(e, _)| e);
    let clauses = sel.group_by.iter().chain(order_by).chain(&sel.having);
    let mut columns = ColumnSet::EMPTY;
    for e in exprs.chain(clauses) {
        e.visit_columns(&mut |_, name| columns.insert(name));
    }
    Ok(Shaped {
        order: order.collect::<Result<_, SqlError>>()?,
        columns,
        catalog,
        sel,
        plan,
        items,
        grouped,
    })
}

/// One SELECT, once: check its shape, govern it once when it reads a point
/// table or is a join (join probes share the statement's context: one
/// registry entry, one permit, one deadline and memory budget), hand the
/// sink its columns and the statement's own token — so a disconnect or
/// `KILL` cancels it at the next checkpoint — then run exactly one arm:
///
/// * the **typed fold** of a foldable aggregate ([`typed_fold`]);
/// * the **native column stream** of a plain point-table scan
///   ([`stream_scan`]);
/// * the **row path** ([`row_path`]): `GROUP BY`, `ORDER BY`, `DISTINCT`,
///   other aggregates, joins that do not fold, vector and `sys.*` scans.
///   Its rows are whole before delivery, so the table — read guard,
///   pinned segments, permit, registry ticket — is released first and a
///   slow client never holds up an `INSERT`.
fn select(
    catalog: &Catalog,
    sel: &SelectStmt,
    plan: &Plan,
    batch_rows: usize,
    sink: &mut dyn RowSink,
    trace: &mut Vec<TraceEntry>,
) -> Result<StreamSummary, SqlError> {
    let q = shape(catalog, sel, plan)?;
    let calls = typed_fold(&q);
    let plain = !q.grouped && !sel.distinct && q.order.is_empty();
    let (table, verb) = match plan {
        Plan::PcScan(scan) if plain => (Some(&scan.table.name), "stream select"),
        Plan::PcScan(scan) => (Some(&scan.table.name), "select"),
        Plan::SpatialJoin { pc, .. } => (Some(&pc.table.name), "join"),
        Plan::VecScan(_) => (None, ""),
    };
    let pc = table.map(|t| catalog.read_points(t)).transpose()?;
    let view = pc.as_ref().map(PcRead::table);
    let (deadline, budget) = (catalog.statement_timeout(), catalog.mem_budget());
    let governed = (view.zip(table))
        .map(|(pc, t)| pc.govern(format!("{verb} {t}"), deadline, budget))
        .transpose()?;
    let token = governed
        .as_ref()
        .map_or_else(CancelToken::new, |g| g.ctx.token().clone());
    let columns: Vec<String> = q.items.iter().map(|(n, _)| n.clone()).collect();
    sink.start(&columns, &token)?;
    let input = view.as_ref().zip(governed.as_ref().map(|g| &g.ctx));
    match (plan, input, &calls) {
        (_, Some((pc, ctx)), Some(calls)) => {
            let rows = fold(&q, pc, ctx, calls, trace)?;
            return deliver(rows, batch_rows, sink, &token);
        }
        (Plan::PcScan(scan), Some((pc, ctx)), None) if plain => {
            return stream_scan(&q, scan, pc, ctx, batch_rows, sink, trace)
        }
        _ => {}
    }
    let rows = row_path(&q, input, trace)?;
    drop(governed);
    drop(pc);
    deliver(rows, batch_rows, sink, &token)
}

/// The row path's input rows, then [`project`]. `input` is the governed
/// point table of a scan or join. The rows a point scan or join selects
/// are resolved to their segments, which stay pinned until the projection
/// is done (`GROUP BY` and `ORDER BY` read rows lazily).
fn row_path(
    q: &Shaped,
    input: Option<(&PointTable, &GovernCtx)>,
    trace: &mut Vec<TraceEntry>,
) -> Result<Vec<Vec<SqlValue>>, SqlError> {
    let t0 = Instant::now();
    match (q.plan, input) {
        (Plan::PcScan(scan), Some((pc, ctx))) => {
            let rows = scan_rows(pc, scan, q.catalog, ctx, trace)?;
            let runs: Vec<Run> = pc.runs(&rows, q.columns).collect::<Result<_, _>>()?;
            let t0 = Instant::now();
            let mut envs = Vec::new();
            for ctx in runs.iter().flat_map(|run| run_ctxs(run, &scan.table.alias)) {
                if passes(&scan.residual, &ctx)? {
                    envs.push(RowEnv::Pc(ctx));
                }
            }
            if !scan.residual.is_empty() {
                let elapsed = t0.elapsed().as_secs_f64();
                trace.push(TraceEntry::new("thematic filter", envs.len(), elapsed));
            }
            project(q, envs, trace)
        }
        (Plan::VecScan(scan), _) => {
            let vt = vector_table(q.catalog, scan)?;
            let mut envs = Vec::new();
            for row in 0..vt.num_rows() {
                let ctx = VecCtx {
                    vt,
                    alias: &scan.table.alias,
                    row,
                };
                if passes(&scan.residual, &ctx)? {
                    envs.push(RowEnv::Vec(ctx));
                }
            }
            let op = format!("vector scan {}", scan.table.alias);
            trace.push(TraceEntry::new(op, envs.len(), t0.elapsed().as_secs_f64()));
            project(q, envs, trace)
        }
        (
            Plan::SpatialJoin {
                pc: pc_scan,
                vec: vec_scan,
                join,
                pair_residual,
            },
            Some((pc, ctx)),
        ) => {
            let probes = join_probes(q.catalog, pc, ctx, pc_scan, vec_scan, join, trace)?;
            // Point-side + pair residuals, over the segments the matched
            // rows live in.
            let t0 = Instant::now();
            let mut runs: Vec<(VecCtx, Run)> = Vec::new();
            for (feature, rows) in &probes {
                for run in pc.runs(rows, q.columns) {
                    runs.push((*feature, run?));
                }
            }
            let mut envs = Vec::new();
            for (vec, run) in &runs {
                for pc in run_ctxs(run, &pc_scan.table.alias) {
                    let ctx = PairCtx { pc, vec: *vec };
                    if passes(&pc_scan.residual, &ctx)? && passes(pair_residual, &ctx)? {
                        envs.push(RowEnv::Pair(ctx));
                    }
                }
            }
            let elapsed = t0.elapsed().as_secs_f64();
            trace.push(TraceEntry::new("pair filter", envs.len(), elapsed));
            project(q, envs, trace)
        }
        _ => unreachable!("point tables are governed"),
    }
}

/// A vector table the plan bound.
fn vector_table<'c>(
    catalog: &'c Catalog,
    scan: &crate::plan::VecScan,
) -> Result<&'c VectorTable, SqlError> {
    match catalog.table(&scan.table.name)? {
        Table::Vector(vt) => Ok(vt),
        _ => unreachable!("bound as vector"),
    }
}

/// The probes of a spatial join, all under the statement's `ctx`: every
/// feature that passes the feature-side residual, with the ascending ids
/// of the points one two-step select finds for its predicate.
fn join_probes<'a>(
    catalog: &'a Catalog,
    pc: &PointTable,
    ctx: &GovernCtx,
    pc_scan: &crate::plan::PcScan,
    vec_scan: &'a crate::plan::VecScan,
    join: &JoinPred,
    trace: &mut Vec<TraceEntry>,
) -> Result<Vec<(VecCtx<'a>, Vec<usize>)>, SqlError> {
    let vt = vector_table(catalog, vec_scan)?;
    let t0 = Instant::now();
    let mut features = Vec::new();
    for row in 0..vt.num_rows() {
        let feature = VecCtx {
            vt,
            alias: &vec_scan.table.alias,
            row,
        };
        if passes(&vec_scan.residual, &feature)? {
            features.push(feature);
        }
    }
    let op = format!("feature filter {}", vec_scan.table.alias);
    trace.push(TraceEntry::new(
        op,
        features.len(),
        t0.elapsed().as_secs_f64(),
    ));

    let t0 = Instant::now();
    let geom_col = match join {
        JoinPred::DWithin { geom_col, .. } => geom_col,
        JoinPred::ContainsPoint { geom_col } => geom_col,
    };
    let mut probes = Vec::with_capacity(features.len());
    // The probes' stages, summed, for the lines under the join's own.
    let mut stages = Explain::default();
    for feature in features {
        let g = match vt.value(geom_col, feature.row)? {
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
        let (attrs, par) = (&pc_scan.attr_ranges, catalog.parallelism());
        let sel = pc.select(Some(&pred), attrs, RefineStrategy::default(), par, ctx)?;
        stages.merge(&sel.explain);
        probes.push((feature, sel.rows));
    }
    trace.push(TraceEntry::new(
        format!("spatial join ({} probes)", probes.len()),
        probes.iter().map(|(_, rows)| rows.len()).sum(),
        t0.elapsed().as_secs_f64(),
    ));
    stage_entries(&stages, "  ", trace);
    Ok(probes)
}

/// The select step every point-table path shares: global row ids of the
/// pushed-down predicates through the two-step engine under `ctx`, or
/// every visible row when nothing was pushed down. Appends the operator
/// trace derived from the query's `Explain`; on a tiled table it leads
/// with a `tile prune` line showing the zone-map skip/probe/load/evict
/// counts, so `EXPLAIN ANALYZE` makes tile pruning visible.
fn scan_rows(
    pc: &PointTable,
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
        RefineStrategy::default(),
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
    stage_entries(e, "", trace);
    Ok(sel.rows)
}

/// The engine's stages of one `Explain` as trace lines, each label after
/// `indent`: the lazy imprint build when there was one, the imprint
/// filter, the exact bbox scan with the band table it masked by (count
/// and cut axis), and grid refinement with its `nx×ny` cells, their
/// classes (inside/outside/boundary) and exact point tests.
fn stage_entries(e: &Explain, indent: &str, trace: &mut Vec<TraceEntry>) {
    if e.t_imprint_build > 0.0 {
        let op = format!("{indent}imprint build (lazy)");
        trace.push(TraceEntry::new(op, 0, e.t_imprint_build));
    }
    let op = match e.attr_probes {
        0 => format!("{indent}imprint filter"),
        n => format!("{indent}imprint filter (+{n} attribute probes)"),
    };
    trace.push(TraceEntry::new(op, e.after_imprints, e.t_imprints));
    let bands: Vec<String> = [(e.bands_x, 'x'), (e.bands_y, 'y')]
        .iter()
        .filter(|(n, _)| *n > 0)
        .map(|(n, axis)| format!("{n} {axis}-bands"))
        .collect();
    let op = match bands.is_empty() {
        true => format!("{indent}exact bbox scan"),
        false => format!("{indent}exact bbox scan (band table: {})", bands.join(", ")),
    };
    trace.push(TraceEntry::new(op, e.after_bbox, e.t_bbox));
    let grid = match e.grid_nx {
        0 => String::new(),
        nx => format!("{nx}x{} grid, ", e.grid_ny),
    };
    let op = format!(
        "{indent}grid refinement ({grid}cells {}/{}/{}, {} exact tests)",
        e.cells_inside, e.cells_outside, e.cells_boundary, e.exact_tests
    );
    trace.push(TraceEntry::new(op, e.result_rows, e.t_refine));
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

/// Aggregate-aware evaluation of one select item over a group: `call`
/// computes each aggregate call, `first` is the group's first row (for a
/// non-aggregate part; constants evaluate without one).
fn eval_agg(
    e: &Expr,
    first: Option<&dyn Ctx>,
    call: &dyn Fn(&Expr) -> Result<SqlValue, SqlError>,
) -> Result<SqlValue, SqlError> {
    if !e.has_aggregate() {
        return match first {
            Some(ctx) => eval(e, ctx),
            None => eval_const(e),
        };
    }
    match e {
        Expr::CountStar => call(e),
        Expr::Func { name, .. } if is_aggregate(name) => call(e),
        Expr::Binary { op, left, right } => {
            let l = eval_agg(left, first, call)?;
            let r = eval_agg(right, first, call)?;
            apply_binop(*op, l, r)
        }
        Expr::Neg(inner) => match eval_agg(inner, first, call)? {
            SqlValue::Null => Ok(SqlValue::Null),
            SqlValue::Int(v) => Ok(SqlValue::Int(-v)),
            v => Ok(SqlValue::Float(-v.as_f64()?)),
        },
        Expr::Func { name, args } => {
            let vals: Vec<SqlValue> = args
                .iter()
                .map(|a| eval_agg(a, first, call))
                .collect::<Result<_, _>>()?;
            functions::call(name, &vals)
        }
        other => Err(SqlError::Exec(format!(
            "unsupported aggregate expression {}",
            other.render()
        ))),
    }
}

/// One aggregate call over the rows of a group on the row path. NULL
/// inputs are skipped; `SUM`/`AVG` accumulate in the engine's compensated
/// [`AggState`]; over no input `COUNT` is 0 and the others are NULL.
fn row_aggregate(e: &Expr, group: &[&RowEnv]) -> Result<SqlValue, SqlError> {
    let Expr::Func { name, args } = e else {
        return Ok(SqlValue::Int(group.len() as i64)); // COUNT(*)
    };
    let [arg] = args.as_slice() else {
        return Err(SqlError::Exec(format!("{name} expects one argument")));
    };
    let (mut acc, mut best) = (AggState::default(), None::<SqlValue>);
    for env in group {
        let v = eval(arg, *env)?;
        match name.as_str() {
            _ if v.is_null() => {}
            "SUM" | "AVG" => acc.push(v.as_f64()?),
            "MIN" | "MAX" => {
                acc.count += 1;
                let better = match &best {
                    None => true,
                    Some(b) => {
                        let ord = v.compare(b).ok_or_else(|| {
                            SqlError::Exec("incomparable values in MIN/MAX".into())
                        })?;
                        if name == "MIN" {
                            ord.is_lt()
                        } else {
                            ord.is_gt()
                        }
                    }
                };
                if better {
                    best = Some(v);
                }
            }
            _ => acc.count += 1,
        }
    }
    Ok(match name.as_str() {
        "COUNT" => SqlValue::Int(acc.count as i64),
        _ if acc.count == 0 => SqlValue::Null,
        "SUM" => SqlValue::Float(acc.sum()),
        "AVG" => SqlValue::Float(acc.sum() / acc.count as f64),
        _ => best.unwrap_or(SqlValue::Null),
    })
}

/// Projection, aggregation, ordering, limiting: the row path.
fn project(
    q: &Shaped,
    envs: Vec<RowEnv>,
    trace: &mut Vec<TraceEntry>,
) -> Result<Vec<Vec<SqlValue>>, SqlError> {
    let (sel, items) = (q.sel, &q.items);
    let t0 = Instant::now();
    let mut rows: Vec<Vec<SqlValue>> = Vec::new();
    if q.grouped {
        let groups: Vec<Vec<&RowEnv>> = if sel.group_by.is_empty() {
            // One global group, also over an empty input: COUNT(*) = 0,
            // other aggregates are NULL, and HAVING still applies.
            vec![envs.iter().collect()]
        } else {
            let mut groups: Vec<Vec<&RowEnv>> = Vec::new();
            let mut index = std::collections::HashMap::new();
            for env in &envs {
                let mut key = String::new();
                for g in &sel.group_by {
                    key.push_str(&eval(g, env)?.group_key());
                    key.push('\u{1}');
                }
                let next = groups.len();
                let i = *index.entry(key).or_insert(next);
                if i == next {
                    groups.push(Vec::new());
                }
                groups[i].push(env);
            }
            groups
        };
        for group in &groups {
            let call = |e: &Expr| row_aggregate(e, group);
            let first = group.first().map(|env| *env as &dyn Ctx);
            if let Some(h) = &sel.having {
                if !truthy(&eval_agg(h, first, &call)?) {
                    continue;
                }
            }
            let mut row = Vec::new();
            for (_, e) in items {
                row.push(eval_agg(e, first, &call)?);
            }
            rows.push(row);
        }
    } else {
        for env in &envs {
            let mut row = Vec::with_capacity(items.len());
            for (_, e) in items {
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
        if q.grouped {
            "aggregate + project"
        } else {
            "project"
        },
        rows.len(),
        t0.elapsed().as_secs_f64(),
    ));

    if !q.order.is_empty() {
        let t0 = Instant::now();
        rows.sort_by(|a, b| {
            for &(idx, asc) in &q.order {
                let ord = a[idx].compare(&b[idx]).unwrap_or(std::cmp::Ordering::Equal);
                let ord = if asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        trace.push(TraceEntry::new(
            "sort",
            rows.len(),
            t0.elapsed().as_secs_f64(),
        ));
    }
    if let Some(limit) = sel.limit {
        rows.truncate(limit as usize);
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Typed fold
// ---------------------------------------------------------------------------

/// An aggregate call of a folded statement; `column` is the point column
/// it reads, `None` for a `COUNT` (point columns hold no NULLs).
struct Call {
    expr: Expr,
    agg: Aggregate,
    column: Option<(&'static str, PhysicalType)>,
}

/// The aggregate calls of `q` when it is a typed fold: no `GROUP BY`,
/// `ORDER BY` or `DISTINCT`, a point table or a spatial join, every
/// aggregate call `COUNT(*)` or one over a plain point-side column, and
/// nothing else but constants; each distinct call once. `None` keeps the
/// statement on the row path.
fn typed_fold(q: &Shaped) -> Option<Vec<Call>> {
    let alias = match q.plan {
        Plan::PcScan(scan) => &scan.table.alias,
        Plan::SpatialJoin { pc, .. } => &pc.table.alias,
        Plan::VecScan(_) => return None,
    };
    if !q.grouped || !q.sel.group_by.is_empty() || !q.order.is_empty() || q.sel.distinct {
        return None;
    }
    let mut calls = Vec::new();
    let mut exprs = q.items.iter().map(|(_, e)| e).chain(&q.sel.having);
    exprs
        .all(|e| collect_calls(e, alias, &mut calls))
        .then_some(calls)
}

/// Collect the aggregate calls of `e` into `calls`, each once; false when
/// `e` needs the row path. Accepts exactly the shapes [`eval_agg`] takes.
fn collect_calls(e: &Expr, alias: &str, calls: &mut Vec<Call>) -> bool {
    if !e.has_aggregate() {
        return e.is_constant();
    }
    let (agg, column) = match e {
        Expr::CountStar => (Aggregate::Count, None),
        Expr::Func { name, args } if is_aggregate(name) => {
            let [Expr::Column { table, name: col }] = args.as_slice() else {
                return false;
            };
            let Some(i) = lidardb_las::COLUMN_NAMES.iter().position(|c| c == col) else {
                return false;
            };
            if table.as_deref().is_some_and(|t| t != alias) {
                return false;
            }
            let agg = match name.as_str() {
                "SUM" => Aggregate::Sum,
                "AVG" => Aggregate::Avg,
                "MIN" => Aggregate::Min,
                "MAX" => Aggregate::Max,
                _ => Aggregate::Count,
            };
            let typed = (
                lidardb_las::COLUMN_NAMES[i],
                lidardb_las::schema::COLUMN_TYPES[i],
            );
            (agg, (agg != Aggregate::Count).then_some(typed))
        }
        Expr::Binary { left, right, .. } => {
            return collect_calls(left, alias, calls) && collect_calls(right, alias, calls)
        }
        Expr::Neg(inner) => return collect_calls(inner, alias, calls),
        Expr::Func { args, .. } => return args.iter().all(|a| collect_calls(a, alias, calls)),
        _ => return false,
    };
    if !calls.iter().any(|c| c.expr == *e) {
        calls.push(Call {
            expr: e.clone(),
            agg,
            column,
        });
    }
    true
}

/// Append to `out` the ids of `ids` (ascending, global) whose row passes
/// `keep`, resolving them to their segments (holding the statement's
/// columns) one run at a time.
fn retain_ids(
    q: &Shaped,
    pc: &PointTable,
    ids: &[usize],
    alias: &str,
    out: &mut Vec<usize>,
    keep: impl Fn(PcCtx) -> Result<bool, SqlError>,
) -> Result<(), SqlError> {
    for run in pc.runs(ids, q.columns) {
        let run = run?;
        for ctx in run_ctxs(&run, alias) {
            if keep(ctx)? {
                out.push(ctx.row + run.1);
            }
        }
    }
    Ok(())
}

/// The typed-fold arm: the ids the statement aggregates — the select and
/// its residual, or every (feature, point) pair of a join that passes the
/// point-side and pair residuals, a point near two features counted twice
/// — folded for every call through [`PointTable::aggregate`] under the
/// statement's `ctx`; then `HAVING` and the items over the one global
/// group.
fn fold(
    q: &Shaped,
    pc: &PointTable,
    ctx: &GovernCtx,
    calls: &[Call],
    trace: &mut Vec<TraceEntry>,
) -> Result<Vec<Vec<SqlValue>>, SqlError> {
    let mut ids = Vec::new();
    match q.plan {
        Plan::PcScan(scan) => {
            ids = scan_rows(pc, scan, q.catalog, ctx, trace)?;
            if !scan.residual.is_empty() {
                let t0 = Instant::now();
                let all = std::mem::take(&mut ids);
                retain_ids(q, pc, &all, &scan.table.alias, &mut ids, |c| {
                    passes(&scan.residual, &c)
                })?;
                let elapsed = t0.elapsed().as_secs_f64();
                trace.push(TraceEntry::new("thematic filter", ids.len(), elapsed));
            }
        }
        Plan::SpatialJoin {
            pc: pc_scan,
            vec: vec_scan,
            join,
            pair_residual,
        } => {
            let probes = join_probes(q.catalog, pc, ctx, pc_scan, vec_scan, join, trace)?;
            let t0 = Instant::now();
            for (vec, rows) in &probes {
                if pc_scan.residual.is_empty() && pair_residual.is_empty() {
                    ids.extend_from_slice(rows);
                    continue;
                }
                retain_ids(q, pc, rows, &pc_scan.table.alias, &mut ids, |pc| {
                    let ctx = PairCtx { pc, vec: *vec };
                    Ok(passes(&pc_scan.residual, &ctx)? && passes(pair_residual, &ctx)?)
                })?;
            }
            let elapsed = t0.elapsed().as_secs_f64();
            trace.push(TraceEntry::new("pair filter", ids.len(), elapsed));
        }
        Plan::VecScan(_) => unreachable!("vector scans do not fold"),
    }
    let t0 = Instant::now();
    let vals = calls.iter().map(|c| fold_call(q, pc, &ids, c, ctx));
    let vals: Vec<SqlValue> = vals.collect::<Result<_, _>>()?;
    let call = |e: &Expr| {
        let i = calls.iter().position(|c| c.expr == *e);
        Ok(vals[i.expect("every aggregate call was collected")].clone())
    };
    let mut rows = Vec::new();
    let kept = match &q.sel.having {
        Some(h) => truthy(&eval_agg(h, None, &call)?),
        None => true,
    };
    if kept {
        let row = q.items.iter().map(|(_, e)| eval_agg(e, None, &call));
        rows.push(row.collect::<Result<_, _>>()?);
    }
    rows.truncate(q.sel.limit.map_or(usize::MAX, |l| l as usize));
    let names: Vec<String> = calls.iter().map(|c| c.expr.render()).collect();
    let op = format!("aggregate (typed fold: {})", names.join(", "));
    trace.push(TraceEntry::new(op, ids.len(), t0.elapsed().as_secs_f64()));
    Ok(rows)
}

/// One call's value, typed as the row path types it: `MIN`/`MAX` of an
/// integer column is its exact value, an `Int` (past `i64::MAX` a float).
fn fold_call(
    q: &Shaped,
    pc: &PointTable,
    ids: &[usize],
    call: &Call,
    ctx: &GovernCtx,
) -> Result<SqlValue, SqlError> {
    let Some((column, phys)) = call.column else {
        return Ok(SqlValue::Int(ids.len() as i64));
    };
    let float = matches!(call.agg, Aggregate::Sum | Aggregate::Avg) || phys.is_float();
    Ok(
        match pc.aggregate(ids, column, call.agg, q.catalog.parallelism(), ctx)? {
            None => SqlValue::Null,
            Some(v) if float => SqlValue::Float(v),
            Some(v) if v.abs() < (1u64 << 53) as f64 => SqlValue::Int(v as i64),
            // Past 2^53 the f64 fold may have rounded: re-read the exact value.
            Some(_) => {
                let mut ids = ids.to_vec();
                ids.sort_unstable(); // segment runs need ascending ids
                let mut vals = Vec::new();
                for run in pc.runs(&ids, q.columns) {
                    let (seg, base, rows) = run?;
                    let col = seg.column(column)?;
                    vals.extend(rows.iter().filter_map(|&r| match col.get(r - base)? {
                        Value::I64(v) => Some(i128::from(v)),
                        Value::U64(v) => Some(i128::from(v)),
                        Value::F64(_) => None,
                    }));
                }
                let best = match call.agg {
                    Aggregate::Max => vals.into_iter().max(),
                    _ => vals.into_iter().min(),
                };
                best.map_or(SqlValue::Null, |b| {
                    i64::try_from(b).map_or(SqlValue::Float(b as f64), SqlValue::Int)
                })
            }
        },
    )
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
/// point-table scan, row batches from every other statement. A sink that
/// blocks in [`RowSink::batch`] or [`RowSink::columns`] (e.g. a socket
/// write against a slow client) backpressures the whole statement — no
/// more rows are produced until the batch is taken.
///
/// Any method may fail (a network sink fails when the peer hangs up);
/// the statement aborts and its governance state (admission permit, query
/// registry ticket) unwinds via RAII.
pub trait RowSink {
    /// Called exactly once, before any batch, with the output column names
    /// and the statement's [`CancelToken`]. A server can clone the token and
    /// trip it from another thread (e.g. a disconnect watcher) to cancel the
    /// statement at its next checkpoint.
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
/// most `batch_rows` instead of materialising a [`ResultSet`]. This is the
/// one statement pipeline; [`execute`] is a collecting sink over it.
///
/// A SELECT is planned once and, when it reads a point table or is a
/// spatial join, governed once: one admission permit, one registry entry,
/// one deadline and memory budget for the whole statement, join probes
/// included. [`RowSink::start`] gets the statement's own token before any
/// work, so a disconnect or `KILL` cancels it at its next checkpoint;
/// shape errors (plain columns mixed with aggregates, an unknown `ORDER
/// BY` column) come before it.
///
/// A plain point-table scan — flat, streaming or tiled — streams natively
/// into [`RowSink::columns`] and never builds a row: the two-step engine
/// produces row *ids*; per batch the residual filters them, plain column
/// items are gathered from typed storage and other items evaluated per
/// row. Batches hold exactly `batch_rows` rows across tile boundaries (the
/// last may be shorter), so a tiled table keeps one tile pinned at a time,
/// and the permit and ticket are held across the scan *and* the
/// backpressured delivery. A typed fold delivers its one row. The row path
/// (`GROUP BY`, `ORDER BY`, `DISTINCT`, other aggregates, unfolded joins,
/// vector tables) releases the table before its rows go to
/// [`RowSink::batch`]; the token is checked between batches on every path.
///
/// `SET`, `SHOW`, `KILL`, `INSERT` and `EXPLAIN` run to completion, then
/// emit.
pub fn execute_streamed(
    catalog: &Catalog,
    stmt: &Statement,
    batch_rows: usize,
    sink: &mut dyn RowSink,
) -> Result<StreamSummary, SqlError> {
    run(catalog, stmt, batch_rows.max(1), sink, &mut Vec::new())
}

/// The native column stream of a plain point-table scan (see
/// [`execute_streamed`]): row ids from the select, then per batch the
/// residual, gathered columns and evaluated items.
fn stream_scan(
    q: &Shaped,
    scan: &crate::plan::PcScan,
    pc: &PointTable,
    ctx: &GovernCtx,
    batch_rows: usize,
    sink: &mut dyn RowSink,
    trace: &mut Vec<TraceEntry>,
) -> Result<StreamSummary, SqlError> {
    let items = &q.items;
    let alias = scan.table.alias.as_str();
    let empty_batch = || ColumnBatch {
        rows: 0,
        columns: vec![ColumnChunk::Values(Vec::new()); items.len()],
    };
    // Row ids via the two-step engine (pushdown only); segments are
    // resolved, residuals applied and columns gathered per batch below.
    let row_ids = scan_rows(pc, scan, q.catalog, ctx, trace)?;
    let t0 = Instant::now();
    let limit = q.sel.limit.map(|l| l as usize).unwrap_or(usize::MAX);
    let (mut emitted, mut batches) = (0usize, 0usize);
    let mut out = empty_batch();
    let mut kept = Vec::new();
    let mut runs = pc.runs(&row_ids, q.columns);
    while emitted < limit {
        let Some(run) = runs.next() else { break };
        let (seg, base, mut rest) = run?;
        let ctx_of = |r: usize| PcCtx {
            pc: &seg,
            alias,
            row: r - base,
        };
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
                    if passes(&scan.residual, &ctx_of(r))? {
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
                            chunk.push(eval(e, &ctx_of(r))?);
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
                ctx.token().check(emitted)?;
            }
        }
    }
    if out.rows > 0 {
        sink.columns(out)?;
        batches += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    trace.push(TraceEntry::new("project (column stream)", emitted, elapsed));
    Ok(StreamSummary {
        rows: emitted,
        batches,
    })
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
        if let Expr::Column {
            table: None,
            name: n,
        } = e
        {
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
