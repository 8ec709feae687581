//! Abstract syntax of the supported SQL subset.

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A (possibly `EXPLAIN`-prefixed) SELECT. Boxed: the statement body
    /// dwarfs the other variants.
    Select(Box<SelectStmt>),
    /// `SET TRACE = ON|OFF` — toggle per-query span tracing for the
    /// session (see `lidardb_core::trace`).
    SetTrace(bool),
    /// `SET STATEMENT_TIMEOUT = <ms>` — deadline for point-cloud scans in
    /// this session; 0 clears it (see `lidardb_core::governor`).
    SetStatementTimeout(u64),
    /// `SET MEM_BUDGET = <bytes>` — per-query memory budget for this
    /// session; 0 clears it.
    SetMemBudget(u64),
    /// `KILL <query_id>` — cooperatively cancel a running query.
    Kill(u64),
    /// `SHOW QUERIES` — queries currently in flight.
    ShowQueries,
    /// `SHOW SLOW QUERIES` — the K worst traced queries by wall time.
    ShowSlowQueries,
    /// `SHOW RECOVERY` — last crash-recovery report and WAL state of every
    /// streaming point-cloud table.
    ShowRecovery,
    /// `INSERT INTO t (cols) VALUES (...), ...` — streaming append into an
    /// ingesting point-cloud table (WAL-logged, snapshot-visible on
    /// commit).
    Insert(Box<InsertStmt>),
}

/// An INSERT statement. Only point-cloud tables opened for streaming
/// ingest accept inserts; unnamed columns take their LAS default.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStmt {
    /// Target table name in the catalog.
    pub table: String,
    /// Explicit column list (required — the flat table has 26 columns).
    pub columns: Vec<String>,
    /// The `VALUES` cells, column-major: `values[c][r]` is row `r` of
    /// `columns[c]`. Every cell is a signed numeric literal.
    pub values: Vec<Vec<f64>>,
    /// Idempotency token (`TOKEN <n>` clause): a batch whose token the
    /// table has already logged is acknowledged without being applied
    /// again, so a retrying client cannot double-insert. `None` = plain
    /// INSERT, no dedup.
    pub token: Option<u64>,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Whether `EXPLAIN` was requested (plan only, no execution — unless
    /// `analyze` is also set).
    pub explain: bool,
    /// Whether `EXPLAIN ANALYZE` was requested: execute the query and
    /// render the plan annotated with real cardinalities and timings.
    pub analyze: bool,
    /// Whether `SELECT DISTINCT` was requested.
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM tables (one or two supported by the planner).
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate over the groups.
    pub having: Option<Expr>,
    /// ORDER BY expressions with ascending flags.
    pub order_by: Vec<(Expr, bool)>,
    /// LIMIT row count.
    pub limit: Option<u64>,
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// An expression with an optional alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// A FROM-clause table reference.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name in the catalog.
    pub name: String,
    /// Alias (defaults to the name).
    pub alias: String,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `OR`
    Or,
    /// `AND`
    And,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinOp {
    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "OR",
            BinOp::And => "AND",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Number(f64),
    /// String literal.
    Str(String),
    /// Column reference, optionally qualified.
    Column {
        /// Table alias qualifier.
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// `COUNT(*)` (the only star-argument call).
    CountStar,
    /// Function or aggregate call.
    Func {
        /// Uppercased function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `NOT expr`.
    Not(Box<Expr>),
    /// `- expr`.
    Neg(Box<Expr>),
    /// `a BETWEEN lo AND hi` (inclusive).
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound.
        lo: Box<Expr>,
        /// Upper bound.
        hi: Box<Expr>,
    },
}

impl Expr {
    /// Render roughly back to SQL (plan display, tests).
    pub fn render(&self) -> String {
        match self {
            Expr::Number(v) => format!("{v}"),
            Expr::Str(s) => format!("'{s}'"),
            Expr::Column { table, name } => match table {
                Some(t) => format!("{t}.{name}"),
                None => name.clone(),
            },
            Expr::CountStar => "COUNT(*)".to_string(),
            Expr::Func { name, args } => {
                let args: Vec<String> = args.iter().map(Expr::render).collect();
                format!("{name}({})", args.join(", "))
            }
            Expr::Binary { op, left, right } => {
                format!("({} {} {})", left.render(), op.symbol(), right.render())
            }
            Expr::Not(e) => format!("(NOT {})", e.render()),
            Expr::Neg(e) => format!("(-{})", e.render()),
            Expr::Between { expr, lo, hi } => format!(
                "({} BETWEEN {} AND {})",
                expr.render(),
                lo.render(),
                hi.render()
            ),
        }
    }

    /// Visit every column reference.
    pub fn visit_columns(&self, f: &mut impl FnMut(Option<&str>, &str)) {
        match self {
            Expr::Column { table, name } => f(table.as_deref(), name),
            Expr::Func { args, .. } => {
                for a in args {
                    a.visit_columns(f);
                }
            }
            Expr::Binary { left, right, .. } => {
                left.visit_columns(f);
                right.visit_columns(f);
            }
            Expr::Not(e) | Expr::Neg(e) => e.visit_columns(f),
            Expr::Between { expr, lo, hi } => {
                expr.visit_columns(f);
                lo.visit_columns(f);
                hi.visit_columns(f);
            }
            Expr::Number(_) | Expr::Str(_) | Expr::CountStar => {}
        }
    }

    /// Whether the expression references no columns (a constant).
    pub fn is_constant(&self) -> bool {
        let mut any = false;
        self.visit_columns(&mut |_, _| any = true);
        !any
    }

    /// Whether the expression contains an aggregate call.
    pub fn has_aggregate(&self) -> bool {
        match self {
            Expr::CountStar => true,
            Expr::Func { name, args } => {
                matches!(name.as_str(), "COUNT" | "SUM" | "AVG" | "MIN" | "MAX")
                    || args.iter().any(Expr::has_aggregate)
            }
            Expr::Binary { left, right, .. } => left.has_aggregate() || right.has_aggregate(),
            Expr::Not(e) | Expr::Neg(e) => e.has_aggregate(),
            Expr::Between { expr, lo, hi } => {
                expr.has_aggregate() || lo.has_aggregate() || hi.has_aggregate()
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_roundtrip_ish() {
        let e = Expr::Binary {
            op: BinOp::And,
            left: Box::new(Expr::Column {
                table: Some("p".into()),
                name: "x".into(),
            }),
            right: Box::new(Expr::Number(3.0)),
        };
        assert_eq!(e.render(), "(p.x AND 3)");
    }

    #[test]
    fn constant_detection() {
        assert!(Expr::Number(1.0).is_constant());
        let f = Expr::Func {
            name: "ST_POINT".into(),
            args: vec![Expr::Number(1.0), Expr::Number(2.0)],
        };
        assert!(f.is_constant());
        let c = Expr::Func {
            name: "ST_POINT".into(),
            args: vec![
                Expr::Column {
                    table: None,
                    name: "x".into(),
                },
                Expr::Number(2.0),
            ],
        };
        assert!(!c.is_constant());
    }

    #[test]
    fn aggregate_detection() {
        assert!(Expr::CountStar.has_aggregate());
        let avg = Expr::Func {
            name: "AVG".into(),
            args: vec![Expr::Column {
                table: None,
                name: "z".into(),
            }],
        };
        assert!(avg.has_aggregate());
        let nested = Expr::Binary {
            op: BinOp::Add,
            left: Box::new(avg),
            right: Box::new(Expr::Number(1.0)),
        };
        assert!(nested.has_aggregate());
        assert!(!Expr::Number(1.0).has_aggregate());
    }
}
