//! Expression evaluation and plan execution: one statement pipeline
//! ([`execute_streamed`], batches into a [`RowSink`]) that [`execute`]
//! collects into a [`ResultSet`].
//!
//! A SELECT is planned, shaped and compiled once, governed once, and runs
//! one columnar pipeline whatever it reads — a point table, a spatial
//! join, a vector or `sys.*` table:
//!
//! 1. **select** row ids: the two-step engine's for a point scan, one
//!    probe's per join feature, every row of a vector table;
//! 2. **filter** them in chunks of at most `batch_rows` per segment run:
//!    the residual is a keep-mask over each chunk, term by term;
//! 3. **group and fold** them — a call over a plain point column folds
//!    each group's ids through the engine's kernel
//!    ([`PointTable::fold`]), any other call accumulates its evaluated
//!    chunk — or **project** them into column-major [`ColumnBatch`]es,
//!    plain point columns gathered from typed storage;
//! 4. **sort, dedupe and limit** only when the statement asks.
//!
//! Expressions compile once per statement into trees over column slots
//! (a point column, a vector-table column, an aggregate call's or a
//! group's first-row value). Evaluation returns one column of values per
//! node: numeric arithmetic, comparisons, logic, `BETWEEN` and negation run
//! as typed loops, everything else row by row through [`apply_binop`] and
//! [`functions::call`], where SQL's NULL rules live.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

use lidardb_core::soa::ColumnArrays;
use lidardb_core::{
    Aggregate, CancelToken, ColumnSet, Explain, GovernCtx, Parallelism, PointCloud, PointTable,
    RefineStrategy, SpatialPredicate,
};
use lidardb_las::schema::COLUMN_TYPES;
use lidardb_las::COLUMN_NAMES;
use lidardb_storage::scan::AggState;
use lidardb_storage::{for_each_variant, Native, PhysicalType, Value};

use crate::ast::{BinOp, Expr, SelectItem, SelectStmt, Statement};
use crate::catalog::{Catalog, PcRead, Table, VColumn, VectorTable};
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

fn from_storage(v: Value) -> SqlValue {
    match v {
        Value::I64(x) => SqlValue::Int(x),
        Value::U64(x) => i64::try_from(x)
            .map(SqlValue::Int)
            .unwrap_or(SqlValue::Float(x as f64)),
        Value::F64(x) => SqlValue::Float(x),
    }
}

// ---------------------------------------------------------------------------
// Compiled expressions
// ---------------------------------------------------------------------------

/// An expression compiled once per statement, its column references slots
/// resolved against the statement's tables.
#[derive(Debug, Clone)]
enum Node {
    Const(SqlValue),
    /// A point column.
    Point(&'static str),
    /// Column `i` of the vector table: a value per row of a vector scan,
    /// the probe's feature value in a join.
    Feature(usize),
    /// Over finished groups: aggregate call `i`, first-row part `i`.
    Agg(usize),
    First(usize),
    Call(String, Vec<Node>),
    Not(Box<Node>),
    Neg(Box<Node>),
    Between(Box<[Node; 3]>),
    Binary(BinOp, Box<[Node; 2]>),
}

/// The tables column references resolve against: the point table's alias,
/// and the vector table's alias and table.
#[derive(Clone, Copy, Default)]
struct Scope<'a> {
    points: Option<&'a str>,
    features: Option<(&'a str, &'a VectorTable)>,
}

impl Scope<'_> {
    /// A qualified column in its table, an unqualified one in the point
    /// table first.
    fn column(&self, table: Option<&str>, name: &str) -> Result<Node, SqlError> {
        let point = |_| {
            COLUMN_NAMES
                .iter()
                .find(|c| **c == name)
                .map(|c| Node::Point(c))
        };
        let feature = |(_, vt): (&str, &VectorTable)| vt.column_index(name).map(Node::Feature);
        let found = match table {
            Some(t) if self.points == Some(t) => self.points.and_then(point),
            Some(t) if self.features.is_some_and(|f| f.0 == t) => self.features.and_then(feature),
            Some(t) => return Err(SqlError::Exec(format!("unknown table alias {t}"))),
            None => (self.points.and_then(point)).or_else(|| self.features.and_then(feature)),
        };
        found.ok_or_else(|| match (self.points, self.features) {
            (None, None) => {
                SqlError::Exec(format!("column {name} referenced in a constant context"))
            }
            _ => SqlError::Exec(format!("unknown column {name}")),
        })
    }
}

/// An aggregate call of a grouped statement.
struct Call {
    expr: Expr,
    agg: Aggregate,
    arg: Arg,
}

enum Arg {
    /// `COUNT(*)` or `COUNT` of a point column (which holds no NULLs): the
    /// group's row count.
    Rows,
    /// A plain point column, folded through the engine's kernel.
    Column(&'static str, PhysicalType),
    /// Anything else, evaluated per chunk and accumulated row by row.
    Expr(Node),
}

/// What compiling a grouped statement's items and `HAVING` collects: each
/// distinct aggregate call, and each distinct non-aggregate part that reads
/// a column.
#[derive(Default)]
struct AggSlots {
    calls: Vec<Call>,
    firsts: Vec<(Expr, Node)>,
}

fn is_aggregate(name: &str) -> bool {
    matches!(name, "COUNT" | "SUM" | "AVG" | "MIN" | "MAX")
}

/// Compile `e` in `scope`. With `slots`, `e` is evaluated over finished
/// groups: an aggregate call becomes [`Node::Agg`], a non-aggregate part
/// that reads a column [`Node::First`]. Without, an aggregate is an error.
fn compile(e: &Expr, scope: Scope, mut slots: Option<&mut AggSlots>) -> Result<Node, SqlError> {
    if let Some(slots) = slots.as_deref_mut() {
        if !e.has_aggregate() && !e.is_constant() {
            if let Some(j) = slots.firsts.iter().position(|(f, _)| f == e) {
                return Ok(Node::First(j));
            }
            slots.firsts.push((e.clone(), compile(e, scope, None)?));
            return Ok(Node::First(slots.firsts.len() - 1));
        }
        let call = match e {
            Expr::CountStar => Some((Aggregate::Count, None)),
            Expr::Func { name, args } if is_aggregate(name) => {
                let [arg] = args.as_slice() else {
                    return Err(SqlError::Exec(format!("{name} expects one argument")));
                };
                let agg = match name.as_str() {
                    "SUM" => Aggregate::Sum,
                    "AVG" => Aggregate::Avg,
                    "MIN" => Aggregate::Min,
                    "MAX" => Aggregate::Max,
                    _ => Aggregate::Count,
                };
                Some((agg, Some(compile(arg, scope, None)?)))
            }
            _ => None,
        };
        if let Some((agg, arg)) = call {
            if let Some(k) = slots.calls.iter().position(|c| c.expr == *e) {
                return Ok(Node::Agg(k));
            }
            let arg = match arg {
                None | Some(Node::Point(_)) if agg == Aggregate::Count => Arg::Rows,
                Some(Node::Point(c)) => {
                    let i = COLUMN_NAMES.iter().position(|n| *n == c);
                    Arg::Column(c, COLUMN_TYPES[i.expect("a point column")])
                }
                arg => Arg::Expr(arg.expect("only COUNT(*) has no argument")),
            };
            let expr = e.clone();
            slots.calls.push(Call { expr, agg, arg });
            return Ok(Node::Agg(slots.calls.len() - 1));
        }
    }
    let mut sub = |e: &Expr| compile(e, scope, slots.as_deref_mut());
    Ok(match e {
        Expr::Number(v) if v.fract() == 0.0 && v.abs() < 9e15 => {
            Node::Const(SqlValue::Int(*v as i64))
        }
        Expr::Number(v) => Node::Const(SqlValue::Float(*v)),
        Expr::Str(s) => Node::Const(SqlValue::Str(s.clone())),
        Expr::Column { table, name } => scope.column(table.as_deref(), name)?,
        Expr::CountStar => {
            return Err(SqlError::Exec(
                "COUNT(*) outside an aggregate context".into(),
            ))
        }
        Expr::Func { name, .. } if is_aggregate(name) => {
            return Err(SqlError::Exec(format!(
                "{name} outside an aggregate context"
            )))
        }
        Expr::Func { name, args } => Node::Call(
            name.clone(),
            args.iter().map(sub).collect::<Result<_, _>>()?,
        ),
        Expr::Not(inner) => Node::Not(Box::new(sub(inner)?)),
        Expr::Neg(inner) => Node::Neg(Box::new(sub(inner)?)),
        Expr::Between { expr, lo, hi } => Node::Between(Box::new([sub(expr)?, sub(lo)?, sub(hi)?])),
        Expr::Binary { op, left, right } => Node::Binary(*op, Box::new([sub(left)?, sub(right)?])),
    })
}

/// Evaluate a constant expression (no column references).
pub fn eval_const(e: &Expr) -> Result<SqlValue, SqlError> {
    let node = compile(e, Scope::default(), None)?;
    Ok(eval(&node, Input::Ids, &[0])?.get(0))
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

/// What the row ids handed to [`eval`] index: bare ids, whose values
/// nothing reads (also the one row of a constant); global row ids of a
/// point segment whose first row is global row `base`, in a join with the
/// probe's feature row; rows of a vector table; finished groups.
#[derive(Clone, Copy)]
enum Input<'a> {
    Ids,
    Points {
        seg: &'a PointCloud,
        base: usize,
        feature: Option<(&'a VectorTable, usize)>,
    },
    Features(&'a VectorTable),
    Groups(&'a [Group]),
}

/// One evaluated node over a chunk of rows: one value for every row,
/// booleans that are never NULL, or a value per row.
#[derive(Debug)]
enum Vals {
    Const(SqlValue),
    Bool(Vec<bool>),
    Chunk(ColumnChunk),
}

impl Vals {
    fn get(&self, i: usize) -> SqlValue {
        match self {
            Vals::Const(v) => v.clone(),
            Vals::Bool(v) => SqlValue::Bool(v[i]),
            Vals::Chunk(c) => c.get(i),
        }
    }

    /// The values of `n` rows as an output column.
    fn into_chunk(self, n: usize) -> ColumnChunk {
        match self {
            Vals::Const(SqlValue::Float(v)) => ColumnChunk::Float(vec![v; n]),
            Vals::Const(SqlValue::Int(v)) => ColumnChunk::Int(vec![v; n]),
            Vals::Chunk(c) => c,
            v => ColumnChunk::Values((0..n).map(|i| v.get(i)).collect()),
        }
    }

    /// The rows as `f64`s, when they are all numbers (`SqlValue::compare`
    /// compares every number so).
    fn floats(&self) -> Option<Operand<'_, f64>> {
        Some(match self {
            Vals::Chunk(ColumnChunk::Float(v)) => Operand::Many(Cow::Borrowed(v)),
            Vals::Chunk(ColumnChunk::Int(v)) => {
                Operand::Many(v.iter().map(|&x| x as f64).collect())
            }
            Vals::Const(v @ (SqlValue::Float(_) | SqlValue::Int(_))) => {
                Operand::One(v.as_f64().ok()?)
            }
            _ => return None,
        })
    }

    /// The rows as integers, when they all are.
    fn ints(&self) -> Option<Operand<'_, i64>> {
        match self {
            Vals::Chunk(ColumnChunk::Int(v)) => Some(Operand::Many(Cow::Borrowed(v))),
            Vals::Const(SqlValue::Int(v)) => Some(Operand::One(*v)),
            _ => None,
        }
    }
}

/// One side of a typed loop: a value per row, or one for every row.
enum Operand<'v, T: Clone> {
    Many(Cow<'v, [T]>),
    One(T),
}

/// `f` over `n` rows of `a` and `b`: one monomorphic loop per `f`.
fn zip<A: Copy, B: Copy, T: Clone>(
    n: usize,
    a: &Operand<A>,
    b: &Operand<B>,
    f: impl Fn(A, B) -> T,
) -> Vec<T> {
    use Operand::{Many, One};
    match (a, b) {
        (Many(a), Many(b)) => a.iter().zip(b.iter()).map(|(&x, &y)| f(x, y)).collect(),
        (Many(a), One(y)) => a.iter().map(|&x| f(x, *y)).collect(),
        (One(x), Many(b)) => b.iter().map(|&y| f(*x, y)).collect(),
        (One(x), One(y)) => vec![f(*x, *y); n],
    }
}

/// `f` over the rows of `args`, one row at a time — SQL's NULL and type
/// rules live in [`apply_binop`] and [`functions::call`] — and once when
/// every argument is a constant.
fn per_row(
    n: usize,
    args: &[Vals],
    f: impl Fn(&[SqlValue]) -> Result<SqlValue, SqlError>,
) -> Result<Vals, SqlError> {
    let at = |i| f(&args.iter().map(|a| a.get(i)).collect::<Vec<_>>());
    if args.iter().all(|a| matches!(a, Vals::Const(_))) {
        return Ok(Vals::Const(at(0)?));
    }
    Ok(Vals::Chunk(ColumnChunk::Values(
        (0..n).map(at).collect::<Result<_, _>>()?,
    )))
}

/// Evaluate `node` over the rows `ids` of `input`: numeric arithmetic,
/// comparisons, connectives and negation as typed loops, everything else
/// row by row (SQL three-valued logic: NULL propagates through comparisons
/// and arithmetic; a NULL filter result is treated as not matching).
fn eval(node: &Node, input: Input, ids: &[usize]) -> Result<Vals, SqlError> {
    let n = ids.len();
    let each = |args: &[Node]| {
        args.iter()
            .map(|a| eval(a, input, ids))
            .collect::<Result<Vec<_>, _>>()
    };
    Ok(match (node, input) {
        (Node::Const(v), _) => Vals::Const(v.clone()),
        (Node::Point(name), Input::Points { seg, base, .. }) => {
            let mut chunk = ColumnChunk::Values(Vec::new());
            for_each_variant!(seg.column(name)?, v => gather(v, base, ids, &mut chunk));
            Vals::Chunk(chunk)
        }
        (
            Node::Feature(i),
            Input::Points {
                feature: Some((vt, row)),
                ..
            },
        ) => Vals::Const(vt.column_at(*i).get(row)),
        (Node::Feature(i), Input::Features(vt)) => Vals::Chunk(match vt.column_at(*i) {
            VColumn::Float(v) => ColumnChunk::Float(ids.iter().map(|&r| v[r]).collect()),
            VColumn::Int(v) => ColumnChunk::Int(ids.iter().map(|&r| v[r]).collect()),
            col => ColumnChunk::Values(ids.iter().map(|&r| col.get(r)).collect()),
        }),
        (Node::Agg(i) | Node::First(i), Input::Groups(groups)) => {
            let part = |g: &Group| match node {
                Node::Agg(_) => g.values.get(*i).cloned(),
                _ => g.firsts.get(*i).cloned(),
            };
            let vals = ids.iter().map(|&g| part(&groups[g])).collect::<Option<_>>();
            let empty = || SqlError::Exec("a column is read over a group of no rows".into());
            Vals::Chunk(ColumnChunk::Values(vals.ok_or_else(empty)?))
        }
        (Node::Point(_) | Node::Feature(_) | Node::Agg(_) | Node::First(_), _) => {
            return Err(SqlError::Exec("a column is read outside its table".into()))
        }
        (Node::Call(name, args), _) => per_row(n, &each(args)?, |v| functions::call(name, v))?,
        (Node::Not(inner), _) => match eval(inner, input, ids)? {
            Vals::Bool(v) => Vals::Bool(v.into_iter().map(|b| !b).collect()),
            v => per_row(n, &[v], |v| match &v[0] {
                SqlValue::Null => Ok(SqlValue::Null),
                v => Ok(SqlValue::Bool(!v.as_bool()?)),
            })?,
        },
        (Node::Neg(inner), _) => match eval(inner, input, ids)? {
            Vals::Chunk(ColumnChunk::Float(v)) => {
                Vals::Chunk(ColumnChunk::Float(v.iter().map(|x| -x).collect()))
            }
            Vals::Chunk(ColumnChunk::Int(v)) => Vals::Chunk(ColumnChunk::Int(
                v.iter().map(|x| x.wrapping_neg()).collect(),
            )),
            v => per_row(n, &[v], |v| match &v[0] {
                SqlValue::Null => Ok(SqlValue::Null),
                SqlValue::Int(v) => Ok(SqlValue::Int(v.wrapping_neg())),
                v => Ok(SqlValue::Float(-v.as_f64()?)),
            })?,
        },
        (Node::Between(parts), _) => per_row(n, &each(&parts[..])?, |v| {
            if v.iter().any(SqlValue::is_null) {
                return Ok(SqlValue::Null);
            }
            let ge = v[0].compare(&v[1]).map(|o| o.is_ge());
            let le = v[0].compare(&v[2]).map(|o| o.is_le());
            Ok(ge
                .zip(le)
                .map_or(SqlValue::Null, |(a, b)| SqlValue::Bool(a && b)))
        })?,
        (Node::Binary(op @ (BinOp::And | BinOp::Or), sides), _) => {
            connective(*op == BinOp::Or, &sides[..], input, ids)?
        }
        (Node::Binary(op, sides), _) => {
            let [l, r]: [Vals; 2] = each(&sides[..])?.try_into().expect("two sides");
            binary(*op, l, r, n)?
        }
    })
}

/// `AND` (`or` false) or `OR` (`or` true) of `sides`: the right side is
/// evaluated only on the rows the left one leaves open — not FALSE under
/// `AND`, not TRUE under `OR`.
fn connective(or: bool, sides: &[Node], input: Input, ids: &[usize]) -> Result<Vals, SqlError> {
    let decided = SqlValue::Bool(or);
    let l = eval(&sides[0], input, ids)?;
    let open: Vec<usize> = (0..ids.len()).filter(|&i| l.get(i) != decided).collect();
    if open.is_empty() {
        return Ok(l);
    }
    let r = eval(
        &sides[1],
        input,
        &open.iter().map(|&i| ids[i]).collect::<Vec<_>>(),
    )?;
    if let (Vals::Bool(l), Vals::Bool(r)) = (&l, &r) {
        let mut out = l.clone();
        open.iter().zip(r).for_each(|(&i, &b)| out[i] = b);
        return Ok(Vals::Bool(out));
    }
    let mut vals = vec![decided.clone(); ids.len()];
    for (j, &i) in open.iter().enumerate() {
        let (l, r) = (l.get(i), r.get(j));
        vals[i] = match (&l, &r) {
            _ if r == decided => decided.clone(),
            (SqlValue::Null, _) | (_, SqlValue::Null) => SqlValue::Null,
            _ if or => SqlValue::Bool(l.as_bool()? || r.as_bool()?),
            _ => SqlValue::Bool(l.as_bool()? && r.as_bool()?),
        };
    }
    Ok(Vals::Chunk(ColumnChunk::Values(vals)))
}

/// An arithmetic or comparison operator: typed loops over numbers,
/// [`apply_binop`] row by row otherwise.
fn binary(op: BinOp, l: Vals, r: Vals, n: usize) -> Result<Vals, SqlError> {
    use BinOp::*;
    let float = |v| Some(Vals::Chunk(ColumnChunk::Float(v)));
    if !matches!((&l, &r), (Vals::Const(_), Vals::Const(_))) {
        if let (Some(a), Some(b), Add | Sub | Mul) = (l.ints(), r.ints(), op) {
            return Ok(Vals::Chunk(ColumnChunk::Int(match op {
                Add => zip(n, &a, &b, i64::wrapping_add),
                Sub => zip(n, &a, &b, i64::wrapping_sub),
                _ => zip(n, &a, &b, i64::wrapping_mul),
            })));
        }
        if let (Some(a), Some(b)) = (l.floats(), r.floats()) {
            let typed = match op {
                Add => float(zip(n, &a, &b, |a, b| a + b)),
                Sub => float(zip(n, &a, &b, |a, b| a - b)),
                Mul => float(zip(n, &a, &b, |a, b| a * b)),
                Div => float(zip(n, &a, &b, |a, b| a / b)),
                Eq => compare(n, &a, &b, |a, b| a == b),
                Ne => compare(n, &a, &b, |a, b| a != b),
                Lt => compare(n, &a, &b, |a, b| a < b),
                Le => compare(n, &a, &b, |a, b| a <= b),
                Gt => compare(n, &a, &b, |a, b| a > b),
                Ge => compare(n, &a, &b, |a, b| a >= b),
                And | Or => unreachable!("connectives short-circuit"),
            };
            if let Some(v) = typed {
                return Ok(v);
            }
        }
    }
    per_row(n, &[l, r], |v| apply_binop(op, &v[0], &v[1]))
}

/// A typed comparison, `None` when a row holds a NaN: comparing one is an
/// error, which the row rule raises.
fn compare(
    n: usize,
    a: &Operand<f64>,
    b: &Operand<f64>,
    f: impl Fn(f64, f64) -> bool,
) -> Option<Vals> {
    let nan = std::cell::Cell::new(false);
    let mask = zip(n, a, b, |a, b| {
        nan.set(nan.get() | a.is_nan() | b.is_nan());
        f(a, b)
    });
    (!nan.get()).then_some(Vals::Bool(mask))
}

/// Apply an arithmetic or comparison operator to two computed values
/// (`AND`/`OR` are [`connective`]'s).
fn apply_binop(op: BinOp, l: &SqlValue, r: &SqlValue) -> Result<SqlValue, SqlError> {
    if l.is_null() || r.is_null() {
        return Ok(SqlValue::Null);
    }
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            if let (SqlValue::Int(a), SqlValue::Int(b)) = (l, r) {
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
            match l.compare(r) {
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
        BinOp::And | BinOp::Or => unreachable!("connectives short-circuit"),
    }
}

/// A filter result: NULL counts as not matching.
fn truthy(v: &SqlValue) -> bool {
    *v == SqlValue::Bool(true)
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

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
    let column = |c: usize| ColumnChunk::Values(rs.rows.iter().map(|r| r[c].clone()).collect());
    let whole = ColumnBatch {
        rows: rs.rows.len(),
        columns: (0..rs.columns.len()).map(column).collect(),
    };
    let rows: Vec<usize> = (0..whole.rows).collect();
    deliver(&whole, &rows, batch_rows, sink, &token)
}

// ---------------------------------------------------------------------------
// The SELECT pipeline
// ---------------------------------------------------------------------------

/// A planned SELECT, shaped and compiled once: what every step reads.
struct Query<'a> {
    catalog: &'a Catalog,
    sel: &'a SelectStmt,
    plan: &'a Plan,
    /// The vector table of a vector scan or a join.
    features: Option<&'a VectorTable>,
    /// Output column names, and `ORDER BY` as (output column, ascending).
    names: Vec<String>,
    order: Vec<(usize, bool)>,
    /// The point columns the statement reads beyond its pushed-down
    /// predicates: those of the items, residuals, `GROUP BY`, `ORDER BY`
    /// and `HAVING`. Every [`PointTable::runs`] call faults in this set.
    columns: ColumnSet,
    /// The residual over the rows the statement scans — a point scan's, a
    /// vector scan's, or a join's point-side and pair terms — and a join's
    /// feature-side residual. A row passes when every term is TRUE.
    residual: Vec<Node>,
    feature_filter: Vec<Node>,
    /// Whether step 3 reads the rows' values (for a residual, an item, a
    /// key, a first-row part or an expression call), so their segments are
    /// resolved; otherwise it takes bare ids.
    reads_rows: bool,
    output: Output,
}

/// Step 3: one output row per surviving row (the compiled items), or per
/// group.
enum Output {
    Rows(Vec<Node>),
    Groups(Grouped),
}

/// A grouped statement (`GROUP BY`, `HAVING` or an aggregate call): its
/// keys (none: one group holds every row), its distinct aggregate calls,
/// the parts read on a group's first row, and `HAVING` and the items over
/// the finished groups.
struct Grouped {
    keys: Vec<Node>,
    calls: Vec<Call>,
    firsts: Vec<Node>,
    having: Option<Node>,
    items: Vec<Node>,
}

/// Expand the output items, check the statement's shape and compile it.
/// Every error raised here comes before any frame is sent.
fn shape<'a>(
    catalog: &'a Catalog,
    sel: &'a SelectStmt,
    plan: &'a Plan,
) -> Result<Query<'a>, SqlError> {
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
    let (points, vec, residual): (_, _, Vec<&Expr>) = match plan {
        Plan::PcScan(pc) => (Some(pc), None, pc.residual.iter().collect()),
        Plan::VecScan(vec) => (None, Some(vec), vec.residual.iter().collect()),
        Plan::SpatialJoin {
            pc,
            vec,
            pair_residual,
            ..
        } => (
            Some(pc),
            Some(vec),
            pc.residual.iter().chain(pair_residual).collect(),
        ),
    };
    let features = vec.map(|vec| vector_table(catalog, vec)).transpose()?;
    let scope = Scope {
        points: points.map(|pc| pc.table.alias.as_str()),
        features: vec
            .zip(features)
            .map(|(vec, vt)| (vec.table.alias.as_str(), vt)),
    };
    let order_by = sel.order_by.iter().map(|(e, _)| e);
    let clauses = sel.group_by.iter().chain(order_by).chain(&sel.having);
    let mut columns = ColumnSet::EMPTY;
    for e in items
        .iter()
        .map(|(_, e)| e)
        .chain(residual.iter().copied())
        .chain(clauses)
    {
        e.visit_columns(&mut |_, name| columns.insert(name));
    }
    let compile_all = |exprs: &mut dyn Iterator<Item = &Expr>, scope| {
        exprs
            .map(|e| compile(e, scope, None))
            .collect::<Result<Vec<_>, _>>()
    };
    let feature_filter = match plan {
        Plan::SpatialJoin { vec, .. } => compile_all(
            &mut vec.residual.iter(),
            Scope {
                points: None,
                ..scope
            },
        )?,
        _ => Vec::new(),
    };
    let output = if grouped {
        let mut slots = AggSlots::default();
        let mut compile_agg = |e: &Expr| compile(e, scope, Some(&mut slots));
        let items = items
            .iter()
            .map(|(_, e)| compile_agg(e))
            .collect::<Result<_, _>>()?;
        let having = sel.having.as_ref().map(compile_agg).transpose()?;
        Output::Groups(Grouped {
            keys: compile_all(&mut sel.group_by.iter(), scope)?,
            calls: slots.calls,
            firsts: slots.firsts.into_iter().map(|(_, node)| node).collect(),
            having,
            items,
        })
    } else {
        Output::Rows(compile_all(&mut items.iter().map(|(_, e)| e), scope)?)
    };
    let reads_rows = !residual.is_empty()
        || match &output {
            Output::Rows(_) => true,
            Output::Groups(g) => {
                let expr_call = g.calls.iter().any(|c| matches!(c.arg, Arg::Expr(_)));
                !g.keys.is_empty() || !g.firsts.is_empty() || expr_call
            }
        };
    Ok(Query {
        order: (sel.order_by.iter())
            .map(|(e, asc)| Ok((resolve_output_column(e, &items)?, *asc)))
            .collect::<Result<_, SqlError>>()?,
        residual: compile_all(&mut residual.into_iter(), scope)?,
        names: items.into_iter().map(|(name, _)| name).collect(),
        catalog,
        sel,
        plan,
        features,
        columns,
        feature_filter,
        reads_rows,
        output,
    })
}

/// One SELECT, once: shape and compile it, govern it once when it reads a
/// point table or is a join (join probes share the statement's context:
/// one registry entry, one permit, one deadline and memory budget), hand
/// the sink its columns and the statement's own token — so a disconnect
/// or `KILL` cancels it at the next checkpoint — then run the pipeline.
///
/// A result that is whole before its first batch (any aggregate, `ORDER
/// BY`, `DISTINCT`) releases the table — read guard, pinned segments,
/// permit, registry ticket — before delivery, so a slow client never holds
/// up an `INSERT`. Any other result streams as it is projected and holds
/// them through delivery.
fn select(
    catalog: &Catalog,
    sel: &SelectStmt,
    plan: &Plan,
    batch_rows: usize,
    sink: &mut dyn RowSink,
    trace: &mut Vec<TraceEntry>,
) -> Result<StreamSummary, SqlError> {
    let q = shape(catalog, sel, plan)?;
    let streamed = matches!(q.output, Output::Rows(_)) && !sel.distinct && q.order.is_empty();
    let (table, verb) = match plan {
        Plan::PcScan(scan) if streamed => (Some(&scan.table.name), "stream select"),
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
    sink.start(&q.names, &token)?;
    let input = view.as_ref().zip(governed.as_ref().map(|g| &g.ctx));
    let whole = match &q.output {
        Output::Rows(items) => {
            let limit = sel.limit.map_or(usize::MAX, |l| l as usize);
            let mut out = match streamed {
                true => Project::new(items, batch_rows, limit, Some((&mut *sink, &token))),
                false => Project::new(items, usize::MAX, usize::MAX, None),
            };
            let mut seconds = scan(&q, input, batch_rows, &mut out, trace)?;
            let t0 = Instant::now();
            let (batch, summary) = out.finish()?;
            seconds += t0.elapsed().as_secs_f64();
            trace.push(TraceEntry::new("project", summary.rows, seconds));
            if streamed {
                return Ok(summary);
            }
            batch
        }
        Output::Groups(g) => aggregate(&q, g, input, batch_rows, trace)?,
    };
    drop(governed);
    drop(pc);
    finish(&q, whole, batch_rows, sink, &token, trace)
}

/// Step 3: what a statement makes of each chunk of surviving rows.
trait Take {
    /// Take the surviving rows `ids` of `input`; false stops the scan (a
    /// `LIMIT` reached).
    fn take(&mut self, input: Input, ids: &[usize]) -> Result<bool, SqlError>;

    /// Take a select's ids whole, when nothing reads their rows' values.
    fn take_ids(&mut self, ids: Vec<usize>) -> Result<bool, SqlError> {
        self.take(Input::Ids, &ids)
    }
}

/// Steps 1 and 2 into `out`: the statement's row ids — the two-step
/// engine's for a point scan, each probe's for a join (feature by
/// feature), every row of a vector table — resolved to their segments and
/// handed over in chunks of at most `batch_rows` per segment run after the
/// residual. A statement that reads no value of its rows hands over bare
/// ids and resolves no segment. Returns the seconds `out` took.
fn scan(
    q: &Query,
    input: Option<(&PointTable, &GovernCtx)>,
    batch_rows: usize,
    out: &mut dyn Take,
    trace: &mut Vec<TraceEntry>,
) -> Result<f64, SqlError> {
    let mut s = Scan {
        q,
        out,
        rows: 0,
        filter_seconds: 0.0,
        take_seconds: 0.0,
    };
    let (pc, ctx, probes) = match (q.plan, input) {
        (Plan::VecScan(scan), _) => {
            let vt = q.features.expect("a vector scan reads a vector table");
            let all: Vec<usize> = (0..vt.num_rows()).collect();
            for chunk in all.chunks(batch_rows) {
                if !s.chunk(Input::Features(vt), chunk)? {
                    break;
                }
            }
            let op = format!("vector scan {}", scan.table.alias);
            trace.push(TraceEntry::new(op, s.rows, s.filter_seconds));
            return Ok(s.take_seconds);
        }
        (Plan::PcScan(scan), Some((pc, ctx))) => (
            pc,
            ctx,
            vec![(None, scan_rows(pc, scan, q.catalog, ctx, trace)?)],
        ),
        (
            Plan::SpatialJoin {
                pc: pc_scan,
                vec,
                join,
                ..
            },
            Some((pc, ctx)),
        ) => {
            let vt = q.features.expect("a join reads a vector table");
            let probes = join_probes(q, vt, pc, ctx, pc_scan, vec, join, trace)?;
            (
                pc,
                ctx,
                probes
                    .into_iter()
                    .map(|(row, ids)| (Some((vt, row)), ids))
                    .collect(),
            )
        }
        _ => unreachable!("point tables are governed"),
    };
    'probes: for (feature, ids) in probes {
        if !q.reads_rows {
            let t0 = Instant::now();
            s.rows += ids.len();
            s.out.take_ids(ids)?;
            s.take_seconds += t0.elapsed().as_secs_f64();
            continue;
        }
        for run in pc.runs(&ids, q.columns) {
            let (seg, base, ids) = run?;
            let input = Input::Points {
                seg: &seg,
                base,
                feature,
            };
            for chunk in ids.chunks(batch_rows) {
                // KILL and the deadline reach every statement once a chunk.
                ctx.token().check(ctx.partial_rows())?;
                if !s.chunk(input, chunk)? {
                    break 'probes;
                }
            }
        }
    }
    if !q.residual.is_empty() {
        trace.push(TraceEntry::new("residual filter", s.rows, s.filter_seconds));
    }
    Ok(s.take_seconds)
}

/// Steps 2 and 3, chunk by chunk: the rows that passed the residual, and
/// the seconds each step took.
struct Scan<'q, 'o> {
    q: &'q Query<'q>,
    out: &'o mut dyn Take,
    rows: usize,
    filter_seconds: f64,
    take_seconds: f64,
}

impl Scan<'_, '_> {
    /// The residual over one chunk, then step 3; false once `out` stops.
    fn chunk(&mut self, input: Input, ids: &[usize]) -> Result<bool, SqlError> {
        let t0 = Instant::now();
        let ids = filter(&self.q.residual, input, ids)?;
        self.rows += ids.len();
        let t1 = Instant::now();
        let more = self.out.take(input, &ids)?;
        self.filter_seconds += (t1 - t0).as_secs_f64();
        self.take_seconds += t1.elapsed().as_secs_f64();
        Ok(more)
    }
}

/// Step 2: the ids of `ids` whose row passes every term — one a row is
/// TRUE on ([`truthy`]), each term evaluated only on the rows every
/// earlier term kept.
fn filter<'i>(
    terms: &[Node],
    input: Input,
    ids: &'i [usize],
) -> Result<Cow<'i, [usize]>, SqlError> {
    let mut rows = Cow::Borrowed(ids);
    for term in terms {
        if rows.is_empty() {
            break;
        }
        let (v, mut kept) = (eval(term, input, &rows)?, vec![0; rows.len()]);
        let mut n = 0;
        let mut keep = |id: usize, pass: bool| {
            // Written always, kept by moving on: no branch per row.
            kept[n] = id;
            n += usize::from(pass);
        };
        match &v {
            Vals::Bool(mask) => rows.iter().zip(mask).for_each(|(&id, &m)| keep(id, m)),
            Vals::Chunk(ColumnChunk::Values(vals)) => rows
                .iter()
                .zip(vals)
                .for_each(|(&id, v)| keep(id, truthy(v))),
            Vals::Const(c) => rows.iter().for_each(|&id| keep(id, truthy(c))),
            // Numbers are never TRUE.
            Vals::Chunk(_) => {}
        }
        kept.truncate(n);
        rows = Cow::Owned(kept);
    }
    Ok(rows)
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
/// feature row of `vt` that passes the feature-side residual, with the
/// ascending ids of the points one two-step select finds for its
/// predicate.
#[allow(clippy::too_many_arguments)]
fn join_probes(
    q: &Query,
    vt: &VectorTable,
    pc: &PointTable,
    ctx: &GovernCtx,
    pc_scan: &crate::plan::PcScan,
    vec_scan: &crate::plan::VecScan,
    join: &JoinPred,
    trace: &mut Vec<TraceEntry>,
) -> Result<Vec<(usize, Vec<usize>)>, SqlError> {
    let t0 = Instant::now();
    let all: Vec<usize> = (0..vt.num_rows()).collect();
    let features = filter(&q.feature_filter, Input::Features(vt), &all)?.into_owned();
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
        let g = match vt.value(geom_col, feature)? {
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
        let (attrs, par) = (&pc_scan.attr_ranges, q.catalog.parallelism());
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

/// Step 3 of a statement without aggregates: the items over each chunk of
/// surviving rows, appended to one column-major batch. A streamed result
/// sends it every `batch_rows` rows — the same boundaries across segment
/// runs and tiles — and stops at `LIMIT`; a whole one keeps one batch.
struct Project<'q, 's> {
    items: &'q [Node],
    batch: ColumnBatch,
    batch_rows: usize,
    limit: usize,
    summary: StreamSummary,
    /// The sink full batches go to, and the statement's token.
    sink: Option<(&'s mut dyn RowSink, &'s CancelToken)>,
}

impl<'q, 's> Project<'q, 's> {
    fn new(
        items: &'q [Node],
        batch_rows: usize,
        limit: usize,
        sink: Option<(&'s mut dyn RowSink, &'s CancelToken)>,
    ) -> Self {
        let (batch, summary) = (
            ColumnBatch::empty(items.len()),
            StreamSummary {
                rows: 0,
                batches: 0,
            },
        );
        Project {
            items,
            batch,
            batch_rows,
            limit,
            summary,
            sink,
        }
    }

    /// Send the batch when it is full — or, when `last`, not empty.
    fn send(&mut self, last: bool) -> Result<(), SqlError> {
        let Some((sink, token)) = &mut self.sink else {
            return Ok(());
        };
        if self.batch.rows == self.batch_rows || (last && self.batch.rows > 0) {
            let full = std::mem::replace(&mut self.batch, ColumnBatch::empty(self.items.len()));
            sink.columns(full)?;
            self.summary.batches += 1;
            if !last {
                // Deadline / KILL / disconnect-trip land between batches,
                // so a cancelled stream stops within one batch of the signal.
                token.check(self.summary.rows)?;
            }
        }
        Ok(())
    }

    /// The batch a whole result keeps; a streamed one sends its last.
    fn finish(mut self) -> Result<(ColumnBatch, StreamSummary), SqlError> {
        self.send(true)?;
        Ok((self.batch, self.summary))
    }
}

impl Take for Project<'_, '_> {
    fn take(&mut self, input: Input, ids: &[usize]) -> Result<bool, SqlError> {
        let mut ids = &ids[..ids.len().min(self.limit - self.summary.rows)];
        while !ids.is_empty() {
            let (now, rest) = ids.split_at(ids.len().min(self.batch_rows - self.batch.rows));
            ids = rest;
            for (node, chunk) in self.items.iter().zip(&mut self.batch.columns) {
                match (node, input) {
                    // A plain point column straight from typed storage.
                    (Node::Point(name), Input::Points { seg, base, .. }) => {
                        for_each_variant!(seg.column(name)?, v => gather(v, base, now, chunk))
                    }
                    _ => append(chunk, eval(node, input, now)?, now.len()),
                }
            }
            self.batch.rows += now.len();
            self.summary.rows += now.len();
            self.send(false)?;
        }
        Ok(self.summary.rows < self.limit)
    }
}

/// Append the `n` rows of `vals` to an output column, which stays typed
/// while the values fit it.
fn append(chunk: &mut ColumnChunk, vals: Vals, n: usize) {
    match (chunk, vals) {
        (chunk, vals) if chunk.is_empty() => *chunk = vals.into_chunk(n),
        (ColumnChunk::Float(out), Vals::Chunk(ColumnChunk::Float(v))) => out.extend(v),
        (ColumnChunk::Int(out), Vals::Chunk(ColumnChunk::Int(v))) => out.extend(v),
        (chunk, vals) => (0..n).for_each(|i| chunk.push(vals.get(i))),
    }
}

/// A `GROUP BY` or `DISTINCT` key part: a value as its type and bits (text
/// as itself, a geometry as its WKT), so `1` and `1.0` stay apart.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Key {
    Null,
    Bool(bool),
    Int(i64),
    Float(u64),
    Str(String),
    Geom(String),
}

impl Key {
    /// Row `i` of `vals`, typed chunks read in place.
    fn row(vals: &Vals, i: usize) -> Key {
        match vals {
            Vals::Chunk(ColumnChunk::Float(v)) => Key::Float(v[i].to_bits()),
            Vals::Chunk(ColumnChunk::Int(v)) => Key::Int(v[i]),
            vals => Key::of(&vals.get(i)),
        }
    }

    fn of(v: &SqlValue) -> Key {
        match v {
            SqlValue::Null => Key::Null,
            SqlValue::Bool(b) => Key::Bool(*b),
            SqlValue::Int(v) => Key::Int(*v),
            SqlValue::Float(v) => Key::Float(v.to_bits()),
            SqlValue::Str(s) => Key::Str(s.clone()),
            SqlValue::Geom(g) => Key::Geom(lidardb_geom::wkt::to_wkt(g)),
        }
    }
}

/// An expression call's accumulator in one group: NULLs are skipped,
/// `SUM`/`AVG` accumulate in the engine's compensated [`AggState`], and
/// `MIN`/`MAX` keep the best value by SQL comparison.
#[derive(Clone, Default)]
struct Acc {
    state: AggState,
    best: Option<SqlValue>,
}

impl Acc {
    fn push(&mut self, agg: Aggregate, v: SqlValue) -> Result<(), SqlError> {
        match agg {
            _ if v.is_null() => {}
            Aggregate::Sum | Aggregate::Avg => self.state.push(v.as_f64()?),
            Aggregate::Count => self.state.count += 1,
            Aggregate::Min | Aggregate::Max => {
                self.state.count += 1;
                let better = match &self.best {
                    None => true,
                    Some(b) => {
                        let ord = v.compare(b).ok_or_else(|| {
                            SqlError::Exec("incomparable values in MIN/MAX".into())
                        })?;
                        ord == if agg == Aggregate::Min {
                            Ordering::Less
                        } else {
                            Ordering::Greater
                        }
                    }
                };
                if better {
                    self.best = Some(v);
                }
            }
        }
        Ok(())
    }

    /// Over no input `COUNT` is 0 and the others are NULL.
    fn finish(&self, agg: Aggregate) -> SqlValue {
        let count = self.state.count;
        match agg {
            Aggregate::Count => SqlValue::Int(count as i64),
            _ if count == 0 => SqlValue::Null,
            Aggregate::Sum => SqlValue::Float(self.state.sum()),
            Aggregate::Avg => SqlValue::Float(self.state.sum() / count as f64),
            Aggregate::Min | Aggregate::Max => self.best.clone().unwrap_or(SqlValue::Null),
        }
    }
}

/// One group: its rows, its ids (kept when a call folds a point column),
/// its expression calls' accumulators, its first-row parts' values (read
/// on the row that opens it) and, once finished, its calls' values.
#[derive(Default)]
struct Group {
    rows: usize,
    ids: Vec<usize>,
    accs: Vec<Acc>,
    firsts: Vec<SqlValue>,
    values: Vec<SqlValue>,
}

/// Step 3 of a grouped statement: each chunk's surviving rows join the
/// group of their key; groups are numbered in order of first appearance.
struct Groups<'q> {
    g: &'q Grouped,
    index: HashMap<Vec<Key>, usize>,
    groups: Vec<Group>,
    keep_ids: bool,
}

impl<'q> Groups<'q> {
    fn new(g: &'q Grouped) -> Self {
        let keep_ids = g.calls.iter().any(|c| matches!(c.arg, Arg::Column(..)));
        let mut groups = Groups {
            g,
            index: HashMap::default(),
            groups: Vec::new(),
            keep_ids,
        };
        if g.keys.is_empty() {
            // One global group, also over an empty input: COUNT(*) = 0,
            // other aggregates are NULL, and HAVING still applies.
            groups.open();
        }
        groups
    }

    fn open(&mut self) -> usize {
        let accs = vec![Acc::default(); self.g.calls.len()];
        self.groups.push(Group {
            accs,
            ..Group::default()
        });
        self.groups.len() - 1
    }

    /// Every call's value per group, with one fold of each (group, point
    /// column) through the engine's kernel.
    fn finish(
        mut self,
        table: Option<(&PointTable, &GovernCtx)>,
        par: Parallelism,
    ) -> Result<Vec<Group>, SqlError> {
        for group in &mut self.groups {
            let mut folds: Vec<(&str, Option<AggState>)> = Vec::new();
            for (call, acc) in self.g.calls.iter().zip(&group.accs) {
                let value = match call.arg {
                    Arg::Rows => SqlValue::Int(group.rows as i64),
                    Arg::Expr(_) => acc.finish(call.agg),
                    Arg::Column(column, phys) => {
                        let (pc, ctx) = table.expect("point columns fold on a point table");
                        let state = match folds.iter().find(|f| f.0 == column) {
                            Some(&(_, state)) => state,
                            None => {
                                let state = pc.fold(&group.ids, column, par, ctx)?;
                                folds.push((column, state));
                                state
                            }
                        };
                        folded(pc, &group.ids, (column, phys), call.agg, state)?
                    }
                };
                group.values.push(value);
            }
        }
        Ok(self.groups)
    }
}

impl Take for Groups<'_> {
    fn take_ids(&mut self, ids: Vec<usize>) -> Result<bool, SqlError> {
        // Only the one global group takes bare ids: moved in, not copied.
        let group = &mut self.groups[0];
        group.rows += ids.len();
        match self.keep_ids {
            true if group.ids.is_empty() => group.ids = ids,
            true => group.ids.extend(ids),
            false => {}
        }
        Ok(true)
    }

    fn take(&mut self, input: Input, ids: &[usize]) -> Result<bool, SqlError> {
        let each = |nodes: &[Node], ids: &[usize]| {
            (nodes.iter().map(|n| eval(n, input, ids))).collect::<Result<Vec<_>, _>>()
        };
        let keys = each(&self.g.keys, ids)?;
        let args = (self.g.calls.iter())
            .map(|c| match &c.arg {
                Arg::Expr(node) => eval(node, input, ids).map(Some),
                _ => Ok(None),
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Each row's group when an expression call needs it, and the rows
        // that open a group.
        let needs_of = args.iter().any(Option::is_some);
        let (mut of, mut opened) = (Vec::new(), Vec::new());
        if keys.is_empty() {
            if self.groups[0].rows == 0 && !ids.is_empty() {
                opened.push((0, 0));
            }
            let group = &mut self.groups[0];
            group.rows += ids.len();
            if self.keep_ids {
                group.ids.extend_from_slice(ids);
            }
            of.resize(if needs_of { ids.len() } else { 0 }, 0);
        } else {
            // A key the chunk repeats is looked up once: constant keys (a
            // join's feature columns) for the whole chunk, one integer key
            // over a short range once per value.
            let (lo, span) = match keys.as_slice() {
                k if k.iter().all(|k| matches!(k, Vals::Const(_))) => (0, 1),
                [Vals::Chunk(ColumnChunk::Int(v))] => {
                    let (lo, hi) = (v.iter().min(), v.iter().max());
                    let span = lo.zip(hi).map_or(0, |(lo, hi)| hi.abs_diff(*lo) + 1);
                    let span = if span <= 4096 { span as usize } else { 0 };
                    (lo.copied().unwrap_or(0), span)
                }
                _ => (0, 0),
            };
            let slot = |i: usize| match &keys[..] {
                [Vals::Chunk(ColumnChunk::Int(v))] => v[i].abs_diff(lo) as usize,
                _ => 0,
            };
            let (mut memo, mut key) = (vec![usize::MAX; span], Vec::new());
            for (i, &id) in ids.iter().enumerate() {
                let known = memo.get(slot(i)).copied().filter(|&g| g != usize::MAX);
                let group = match known {
                    Some(group) => group,
                    None => {
                        key.clear();
                        key.extend(keys.iter().map(|k| Key::row(k, i)));
                        let group = match self.index.get(key.as_slice()) {
                            Some(&group) => group,
                            None => {
                                opened.push((i, self.groups.len()));
                                self.index.insert(key.clone(), self.groups.len());
                                self.open()
                            }
                        };
                        if let Some(m) = memo.get_mut(slot(i)) {
                            *m = group;
                        }
                        group
                    }
                };
                let g = &mut self.groups[group];
                g.rows += 1;
                if self.keep_ids {
                    g.ids.push(id);
                }
                if needs_of {
                    of.push(group);
                }
            }
        }
        let rows: Vec<usize> = opened.iter().map(|&(i, _)| ids[i]).collect();
        let firsts = each(&self.g.firsts, &rows)?;
        for (k, &(_, group)) in opened.iter().enumerate() {
            self.groups[group].firsts = firsts.iter().map(|v| v.get(k)).collect();
        }
        for ((c, call), v) in self.g.calls.iter().enumerate().zip(&args) {
            let Some(v) = v else { continue };
            for (i, &group) in of.iter().enumerate() {
                self.groups[group].accs[c].push(call.agg, v.get(i))?;
            }
        }
        Ok(true)
    }
}

/// A folded call's value, typed as SQL types it: `MIN`/`MAX` of an
/// integer column is its exact value, an `Int` (past `i64::MAX` a float).
fn folded(
    pc: &PointTable,
    ids: &[usize],
    (column, phys): (&str, PhysicalType),
    agg: Aggregate,
    state: Option<AggState>,
) -> Result<SqlValue, SqlError> {
    let Some(state) = state else {
        return Ok(SqlValue::Null);
    };
    let v = match agg {
        Aggregate::Sum => state.sum(),
        Aggregate::Avg => state.sum() / ids.len() as f64,
        Aggregate::Min => state.min,
        Aggregate::Max => state.max,
        Aggregate::Count => unreachable!("a count folds no column"),
    };
    if matches!(agg, Aggregate::Sum | Aggregate::Avg) || phys.is_float() {
        return Ok(SqlValue::Float(v));
    }
    if v.abs() < (1u64 << 53) as f64 {
        return Ok(SqlValue::Int(v as i64));
    }
    // Past 2^53 the f64 fold may have rounded: re-read the exact value.
    let mut ids = ids.to_vec();
    ids.sort_unstable(); // segment runs need ascending ids
    let mut vals = Vec::new();
    for run in pc.runs(&ids, ColumnSet::of([column])) {
        let (seg, base, rows) = run?;
        let col = seg.column(column)?;
        vals.extend(rows.iter().filter_map(|&r| match col.get(r - base)? {
            Value::I64(v) => Some(i128::from(v)),
            Value::U64(v) => Some(i128::from(v)),
            Value::F64(_) => None,
        }));
    }
    let best = match agg {
        Aggregate::Max => vals.into_iter().max(),
        _ => vals.into_iter().min(),
    };
    Ok(best.map_or(SqlValue::Null, |b| {
        i64::try_from(b).map_or(SqlValue::Float(b as f64), SqlValue::Int)
    }))
}

/// Step 3 of a grouped statement, whole: the groups of every surviving
/// row, their calls, then `HAVING` and the items over the finished groups.
fn aggregate(
    q: &Query,
    g: &Grouped,
    input: Option<(&PointTable, &GovernCtx)>,
    batch_rows: usize,
    trace: &mut Vec<TraceEntry>,
) -> Result<ColumnBatch, SqlError> {
    let mut groups = Groups::new(g);
    let mut seconds = scan(q, input, batch_rows, &mut groups, trace)?;
    let t0 = Instant::now();
    let groups = groups.finish(input, q.catalog.parallelism())?;
    let all: Vec<usize> = (0..groups.len()).collect();
    let kept = filter(g.having.as_slice(), Input::Groups(&groups), &all)?;
    let columns = (g.items.iter())
        .map(|e| Ok(eval(e, Input::Groups(&groups), &kept)?.into_chunk(kept.len())))
        .collect::<Result<_, SqlError>>()?;
    seconds += t0.elapsed().as_secs_f64();
    let calls: Vec<String> = g.calls.iter().map(|c| c.expr.render()).collect();
    let keyed = match g.keys.len() {
        0 => String::new(),
        _ => format!("; {} groups", groups.len()),
    };
    let op = format!("aggregate ({}{keyed})", calls.join(", "));
    trace.push(TraceEntry::new(
        op,
        groups.iter().map(|g| g.rows).sum(),
        seconds,
    ));
    Ok(ColumnBatch {
        rows: kept.len(),
        columns,
    })
}

/// Step 4 of a whole result, then its delivery: `DISTINCT` keeps each
/// row's first occurrence, `ORDER BY` stably sorts a permutation of the
/// rows, `LIMIT` cuts it, and only the rows left are gathered into the
/// batches sent.
fn finish(
    q: &Query,
    whole: ColumnBatch,
    batch_rows: usize,
    sink: &mut dyn RowSink,
    token: &CancelToken,
    trace: &mut Vec<TraceEntry>,
) -> Result<StreamSummary, SqlError> {
    let mut rows: Vec<usize> = (0..whole.rows).collect();
    if q.sel.distinct {
        let t0 = Instant::now();
        let (mut seen, mut key) = (HashSet::new(), Vec::new());
        rows.retain(|&r| {
            key.clear();
            key.extend(whole.columns.iter().map(|c| Key::of(&c.get(r))));
            !seen.contains(key.as_slice()) && seen.insert(key.clone())
        });
        trace.push(TraceEntry::new(
            "distinct",
            rows.len(),
            t0.elapsed().as_secs_f64(),
        ));
    }
    let limit = q.sel.limit.map_or(usize::MAX, |l| l as usize);
    if !q.order.is_empty() {
        let t0 = Instant::now();
        // Ties go to the earlier row, as a stable sort leaves them, so the
        // first `limit` rows can be selected before they are sorted.
        let order = |&a: &usize, &b: &usize| {
            let mut ords = q.order.iter().map(|&(c, asc)| {
                let ord = whole.columns[c].compare(a, b).unwrap_or(Ordering::Equal);
                if asc {
                    ord
                } else {
                    ord.reverse()
                }
            });
            ords.find(|o| o.is_ne()).unwrap_or(a.cmp(&b))
        };
        if limit < rows.len() {
            rows.select_nth_unstable_by(limit, order);
            rows.truncate(limit);
        }
        rows.sort_unstable_by(order);
        trace.push(TraceEntry::new(
            "sort",
            rows.len(),
            t0.elapsed().as_secs_f64(),
        ));
    }
    rows.truncate(limit);
    deliver(&whole, &rows, batch_rows, sink, token)
}

/// Send rows `rows` of `whole` to `sink` in batches of `batch_rows`,
/// checking `token` between batches so a deadline or a hang-up stops
/// delivery.
fn deliver(
    whole: &ColumnBatch,
    rows: &[usize],
    batch_rows: usize,
    sink: &mut dyn RowSink,
    token: &CancelToken,
) -> Result<StreamSummary, SqlError> {
    for (sent, rows) in rows.chunks(batch_rows).enumerate() {
        if sent > 0 {
            token.check(sent * batch_rows)?;
        }
        let column =
            |c: &ColumnChunk| ColumnChunk::Values(rows.iter().map(|&r| c.get(r)).collect());
        let columns = whole.columns.iter().map(column).collect();
        sink.columns(ColumnBatch {
            rows: rows.len(),
            columns,
        })?;
    }
    Ok(StreamSummary {
        rows: rows.len(),
        batches: rows.len().div_ceil(batch_rows),
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

    /// Value `a` against value `b` as [`SqlValue::compare`] orders them.
    fn compare(&self, a: usize, b: usize) -> Option<Ordering> {
        match self {
            ColumnChunk::Float(v) => v[a].partial_cmp(&v[b]),
            ColumnChunk::Int(v) => (v[a] as f64).partial_cmp(&(v[b] as f64)),
            ColumnChunk::Values(v) => v[a].compare(&v[b]),
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
    /// A batch of no rows and `columns` empty columns.
    fn empty(columns: usize) -> Self {
        ColumnBatch {
            rows: 0,
            columns: vec![ColumnChunk::Values(Vec::new()); columns],
        }
    }

    /// The same values row-major.
    pub fn to_rows(&self) -> Vec<Vec<SqlValue>> {
        (0..self.rows)
            .map(|i| self.columns.iter().map(|c| c.get(i)).collect())
            .collect()
    }
}

/// Where [`execute_streamed`] delivers its output: a header once, then
/// zero or more column-major [`ColumnBatch`]es. A sink that blocks in
/// [`RowSink::columns`] (e.g. a socket write against a slow client)
/// backpressures the whole statement — no more rows are produced until the
/// batch is taken.
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
/// A SELECT is planned, compiled and, when it reads a point table or is a
/// spatial join, governed once: one admission permit, one registry entry,
/// one deadline and memory budget, join probes included. Shape errors come
/// before [`RowSink::start`], which gets the statement's own token, so a
/// disconnect or `KILL` cancels it at its next checkpoint. A streamed
/// result's batches hold exactly `batch_rows` rows across tile boundaries
/// (the last may be shorter), so a tiled table keeps one tile pinned at a
/// time; the token is checked between batches on every path. `SET`,
/// `SHOW`, `KILL`, `INSERT` and `EXPLAIN` run to completion, then emit.
pub fn execute_streamed(
    catalog: &Catalog,
    stmt: &Statement,
    batch_rows: usize,
    sink: &mut dyn RowSink,
) -> Result<StreamSummary, SqlError> {
    run(catalog, stmt, batch_rows.max(1), sink, &mut Vec::new())
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
