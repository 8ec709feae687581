//! Recursive-descent parser for the SELECT subset.

use crate::ast::{BinOp, Expr, InsertStmt, SelectItem, SelectStmt, Statement, TableRef};
use crate::error::SqlError;
use crate::lexer::{tokenize, Token, TokenKind};

/// Maximum expression nesting depth the parser accepts. Recursive descent
/// burns a handful of stack frames per level, so an unbounded hostile
/// input — thousands of `(`, `NOT` or unary `-` — would overflow the
/// stack and *abort* the process instead of returning an error. 128 is
/// far beyond any real query and keeps worst-case stack usage in the tens
/// of kilobytes (it also bounds every later recursion over the AST:
/// rendering, planning, evaluation, drop).
pub const MAX_EXPR_DEPTH: usize = 128;

/// Parse one statement.
pub fn parse(sql: &str) -> Result<Statement, SqlError> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let stmt = p.parse_statement()?;
    p.expect_eof()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current expression nesting depth (see [`MAX_EXPR_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    /// Take the current token and step past it; the final `Eof` is never
    /// passed. The parser never looks back, so a passed token's payload
    /// is moved out, not cloned.
    fn bump(&mut self) -> TokenKind {
        let t = std::mem::replace(&mut self.tokens[self.pos].kind, TokenKind::Eof);
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    /// `f`, repeated while a `,` separates the items.
    fn comma_list<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, SqlError>,
    ) -> Result<Vec<T>, SqlError> {
        let mut out = vec![f(self)?];
        while *self.peek() == TokenKind::Comma {
            self.bump();
            out.push(f(self)?);
        }
        Ok(out)
    }

    fn err(&self, reason: impl Into<String>) -> SqlError {
        SqlError::Parse {
            reason: reason.into(),
            offset: self.offset(),
        }
    }

    /// Whether the current token is the given keyword (case-insensitive).
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}")))
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), SqlError> {
        if *self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {kind:?}, found {:?}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<(), SqlError> {
        if *self.peek() == TokenKind::Eof {
            Ok(())
        } else {
            Err(self.err(format!("trailing input: {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    /// A non-negative integer literal (session knobs, KILL ids).
    fn integer(&mut self) -> Result<u64, SqlError> {
        match self.bump() {
            TokenKind::Number(v) if v >= 0.0 && v.fract() == 0.0 => Ok(v as u64),
            other => Err(self.err(format!("expected a non-negative integer, found {other:?}"))),
        }
    }

    fn parse_statement(&mut self) -> Result<Statement, SqlError> {
        if self.eat_kw("SET") {
            if self.eat_kw("TRACE") {
                self.expect(TokenKind::Eq)?;
                let on = if self.eat_kw("ON") {
                    true
                } else if self.eat_kw("OFF") {
                    false
                } else {
                    return Err(self.err("expected ON or OFF"));
                };
                return Ok(Statement::SetTrace(on));
            }
            if self.eat_kw("STATEMENT_TIMEOUT") {
                self.expect(TokenKind::Eq)?;
                return Ok(Statement::SetStatementTimeout(self.integer()?));
            }
            if self.eat_kw("MEM_BUDGET") {
                self.expect(TokenKind::Eq)?;
                return Ok(Statement::SetMemBudget(self.integer()?));
            }
            return Err(self.err("expected TRACE, STATEMENT_TIMEOUT or MEM_BUDGET"));
        }
        if self.eat_kw("KILL") {
            return Ok(Statement::Kill(self.integer()?));
        }
        if self.eat_kw("SHOW") {
            if self.eat_kw("QUERIES") {
                return Ok(Statement::ShowQueries);
            }
            if self.eat_kw("RECOVERY") {
                return Ok(Statement::ShowRecovery);
            }
            self.expect_kw("SLOW")?;
            self.expect_kw("QUERIES")?;
            return Ok(Statement::ShowSlowQueries);
        }
        if self.eat_kw("INSERT") {
            return self.parse_insert();
        }
        let explain = self.eat_kw("EXPLAIN");
        let analyze = explain && self.eat_kw("ANALYZE");
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let items = self.parse_select_items()?;
        self.expect_kw("FROM")?;
        let from = self.parse_from()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by = self.comma_list(Self::parse_expr)?;
        }
        let having = if self.eat_kw("HAVING") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            order_by = self.comma_list(|p| {
                let e = p.parse_expr()?;
                let asc = if p.eat_kw("DESC") {
                    false
                } else {
                    p.eat_kw("ASC");
                    true
                };
                Ok((e, asc))
            })?;
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.bump() {
                TokenKind::Number(v) if v >= 0.0 && v.fract() == 0.0 => Some(v as u64),
                _ => return Err(self.err("LIMIT expects a non-negative integer")),
            }
        } else {
            None
        };
        Ok(Statement::Select(Box::new(SelectStmt {
            explain,
            analyze,
            distinct,
            items,
            from,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })))
    }

    /// `INSERT INTO t (c, ...) VALUES (v, ...), ...` — the column list is
    /// mandatory (nobody remembers the order of 26 LAS columns) and every
    /// tuple must match its arity. Each cell is read by
    /// [`Self::literal_cell`] straight into its column's vector.
    fn parse_insert(&mut self) -> Result<Statement, SqlError> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let columns = self.comma_list(Self::ident)?;
        self.expect(TokenKind::RParen)?;
        self.expect_kw("VALUES")?;
        let mut values = vec![Vec::new(); columns.len()];
        self.comma_list(|p| {
            p.expect(TokenKind::LParen)?;
            let mut arity = 0;
            p.comma_list(|p| {
                let v = p.literal_cell()?;
                if let Some(col) = values.get_mut(arity) {
                    col.push(v);
                }
                arity += 1;
                Ok(())
            })?;
            p.expect(TokenKind::RParen)?;
            if arity != columns.len() {
                return Err(p.err(format!(
                    "VALUES tuple has {arity} values for {} columns",
                    columns.len()
                )));
            }
            Ok(())
        })?;
        // Optional idempotency token: `... TOKEN 12345`. 0 is reserved as
        // the "no token" sentinel on the wire, so reject it here.
        let token = if self.eat_kw("TOKEN") {
            let t = self.integer()?;
            if t == 0 {
                return Err(self.err("TOKEN must be nonzero"));
            }
            Some(t)
        } else {
            None
        };
        Ok(Statement::Insert(Box::new(InsertStmt {
            table,
            columns,
            values,
            token,
        })))
    }

    /// One `VALUES` cell: a numeric literal inside any mix of unary
    /// `+`/`-` and balanced parentheses (`7`, `-2.5e-2`, `-(-5)`,
    /// `((+7))`), followed by the `,` or `)` that ends it. The value is
    /// the literal's `str::parse` result, negated once per `-`, so a cell
    /// keeps the exact bits its literal spells. Anything else is a parse
    /// error at the cell's first token.
    fn literal_cell(&mut self) -> Result<f64, SqlError> {
        let start = self.offset();
        let reject = || SqlError::Parse {
            reason: "an INSERT value must be a signed numeric literal".into(),
            offset: start,
        };
        let (mut negative, mut open) = (false, 0usize);
        let v = loop {
            match self.bump() {
                TokenKind::Minus => negative = !negative,
                TokenKind::Plus => {}
                TokenKind::LParen => open += 1,
                TokenKind::Number(v) => break v,
                _ => return Err(reject()),
            }
        };
        while open > 0 && *self.peek() == TokenKind::RParen {
            self.bump();
            open -= 1;
        }
        if open > 0 || !matches!(self.peek(), TokenKind::Comma | TokenKind::RParen) {
            return Err(reject());
        }
        Ok(if negative { -v } else { v })
    }

    fn parse_select_items(&mut self) -> Result<Vec<SelectItem>, SqlError> {
        self.comma_list(|p| {
            if *p.peek() == TokenKind::Star {
                p.bump();
                return Ok(SelectItem::Wildcard);
            }
            let expr = p.parse_expr()?;
            let alias = if p.eat_kw("AS") {
                Some(p.ident()?)
            } else {
                None
            };
            Ok(SelectItem::Expr { expr, alias })
        })
    }

    fn parse_from(&mut self) -> Result<Vec<TableRef>, SqlError> {
        self.comma_list(|p| {
            let mut name = p.ident()?;
            // Qualified table name (`sys.metrics`): the dotted pair is one
            // catalog name, kept joined — the catalog namespaces virtual
            // tables with the `sys.` prefix.
            if *p.peek() == TokenKind::Dot {
                p.bump();
                name = format!("{name}.{}", p.ident()?);
            }
            // Optional alias: a bare identifier that is not a clause
            // keyword.
            let alias = match p.peek() {
                TokenKind::Ident(s)
                    if !["WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "AS"]
                        .iter()
                        .any(|k| s.eq_ignore_ascii_case(k)) =>
                {
                    p.ident()?
                }
                _ => {
                    if p.eat_kw("AS") {
                        p.ident()?
                    } else {
                        name.clone()
                    }
                }
            };
            Ok(TableRef { name, alias })
        })
    }

    // ---- expression precedence climbing -----------------------------------

    /// Run `f` one nesting level deeper, rejecting inputs that exceed
    /// [`MAX_EXPR_DEPTH`] with a typed parse error instead of blowing the
    /// stack. Wraps every self-recursive entry point: `parse_expr` (the
    /// precedence chain and parenthesised primaries), `parse_not` and
    /// `parse_unary` (prefix-operator chains that bypass `parse_expr`).
    fn descend<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, SqlError>,
    ) -> Result<T, SqlError> {
        if self.depth >= MAX_EXPR_DEPTH {
            return Err(self.err(format!(
                "expression nesting exceeds the maximum depth of {MAX_EXPR_DEPTH}"
            )));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn parse_expr(&mut self) -> Result<Expr, SqlError> {
        self.descend(|p| p.parse_or())
    }

    fn parse_or(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_and()?;
        while self.eat_kw("OR") {
            let right = self.parse_and()?;
            left = Expr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_not()?;
        while self.eat_kw("AND") {
            let right = self.parse_not()?;
            left = Expr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, SqlError> {
        if self.eat_kw("NOT") {
            let inner = self.descend(|p| p.parse_not())?;
            Ok(Expr::Not(Box::new(inner)))
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> Result<Expr, SqlError> {
        let left = self.parse_additive()?;
        // BETWEEN lo AND hi
        if self.at_kw("BETWEEN") {
            self.bump();
            let lo = self.parse_additive()?;
            self.expect_kw("AND")?;
            let hi = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                lo: Box::new(lo),
                hi: Box::new(hi),
            });
        }
        let op = match self.peek() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(left),
        };
        self.bump();
        let right = self.parse_additive()?;
        Ok(Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        })
    }

    fn parse_additive(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Ok(left),
            };
            self.bump();
            let right = self.parse_multiplicative()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => return Ok(left),
            };
            self.bump();
            let right = self.parse_unary()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
    }

    fn parse_unary(&mut self) -> Result<Expr, SqlError> {
        match self.peek() {
            TokenKind::Minus => {
                self.bump();
                let inner = self.descend(|p| p.parse_unary())?;
                Ok(Expr::Neg(Box::new(inner)))
            }
            TokenKind::Plus => {
                self.bump();
                self.descend(|p| p.parse_unary())
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, SqlError> {
        match self.bump() {
            TokenKind::Number(v) => Ok(Expr::Number(v)),
            TokenKind::Str(s) => Ok(Expr::Str(s)),
            TokenKind::LParen => {
                let e = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(first) => {
                match self.peek() {
                    // Function call.
                    TokenKind::LParen => {
                        self.bump();
                        let name = first.to_ascii_uppercase();
                        if name == "COUNT" && *self.peek() == TokenKind::Star {
                            self.bump();
                            self.expect(TokenKind::RParen)?;
                            return Ok(Expr::CountStar);
                        }
                        let args = if *self.peek() == TokenKind::RParen {
                            Vec::new()
                        } else {
                            self.comma_list(Self::parse_expr)?
                        };
                        self.expect(TokenKind::RParen)?;
                        Ok(Expr::Func { name, args })
                    }
                    // Qualified column.
                    TokenKind::Dot => {
                        self.bump();
                        let name = self.ident()?;
                        Ok(Expr::Column {
                            table: Some(first),
                            name,
                        })
                    }
                    _ => Ok(Expr::Column {
                        table: None,
                        name: first,
                    }),
                }
            }
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(sql: &str) -> SelectStmt {
        match parse(sql).unwrap() {
            Statement::Select(s) => *s,
            other => panic!("expected SELECT, parsed {other:?}"),
        }
    }

    #[test]
    fn minimal() {
        let s = select("SELECT * FROM points");
        assert_eq!(s.items, vec![SelectItem::Wildcard]);
        assert_eq!(s.from[0].name, "points");
        assert_eq!(s.from[0].alias, "points");
        assert!(s.where_clause.is_none());
        assert!(!s.explain);
        assert!(!s.analyze);
    }

    #[test]
    fn explain_analyze() {
        let s = select("EXPLAIN ANALYZE SELECT * FROM points WHERE z > 3");
        assert!(s.explain);
        assert!(s.analyze);
        let s = select("explain analyze select * from points");
        assert!(s.explain && s.analyze, "keywords are case-insensitive");
        let s = select("EXPLAIN SELECT * FROM points");
        assert!(s.explain);
        assert!(!s.analyze);
        // ANALYZE is only a keyword right after EXPLAIN.
        assert!(parse("ANALYZE SELECT * FROM points").is_err());
        assert!(
            parse("SELECT ANALYZE FROM points").is_ok(),
            "still an identifier elsewhere"
        );
    }

    #[test]
    fn full_clause_set() {
        let s = select(
            "EXPLAIN SELECT classification, COUNT(*) AS n FROM points p \
             WHERE z BETWEEN 0 AND 10 AND classification = 6 \
             GROUP BY classification ORDER BY n DESC LIMIT 5",
        );
        assert!(s.explain);
        assert_eq!(s.from[0].alias, "p");
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.order_by.len(), 1);
        assert!(!s.order_by[0].1, "DESC");
        assert_eq!(s.limit, Some(5));
        let w = s.where_clause.unwrap();
        assert!(w.render().contains("BETWEEN"));
    }

    #[test]
    fn precedence() {
        let s = select("SELECT 1 + 2 * 3 FROM t");
        match &s.items[0] {
            SelectItem::Expr { expr, .. } => {
                assert_eq!(expr.render(), "(1 + (2 * 3))");
            }
            _ => panic!(),
        }
        let s = select("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
        let w = s.where_clause.unwrap().render();
        assert_eq!(w, "((a = 1) OR ((b = 2) AND (c = 3)))");
    }

    #[test]
    fn functions_and_qualified_columns() {
        let s = select(
            "SELECT AVG(p.z) FROM points p, roads r \
             WHERE ST_DWithin(ST_Point(p.x, p.y), r.geom, 50.0) AND r.class = 'motorway'",
        );
        assert_eq!(s.from.len(), 2);
        let w = s.where_clause.unwrap().render();
        assert!(w.contains("ST_DWITHIN(ST_POINT(p.x, p.y), r.geom, 50)"));
        assert!(w.contains("'motorway'"));
    }

    #[test]
    fn count_star_and_empty_args() {
        let s = select("SELECT COUNT(*), NOW() FROM t");
        assert!(matches!(
            s.items[0],
            SelectItem::Expr {
                expr: Expr::CountStar,
                ..
            }
        ));
        match &s.items[1] {
            SelectItem::Expr {
                expr: Expr::Func { name, args },
                ..
            } => {
                assert_eq!(name, "NOW");
                assert!(args.is_empty());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn not_and_negation() {
        let s = select("SELECT * FROM t WHERE NOT a > -5");
        let w = s.where_clause.unwrap().render();
        assert_eq!(w, "(NOT (a > (-5)))");
    }

    #[test]
    fn errors() {
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t LIMIT 2.5").is_err());
        assert!(parse("SELECT * FROM t extra garbage tokens").is_err());
        // INSERT requires an explicit column list.
        assert!(parse("INSERT INTO t VALUES (1)").is_err());
        assert!(parse("SELECT (1 FROM t").is_err());
    }

    #[test]
    fn insert_statements() {
        let s = parse("INSERT INTO pts (x, y, z) VALUES (1, 2, 3), (4, -5, 6.5)").unwrap();
        let Statement::Insert(ins) = s else {
            panic!("expected INSERT");
        };
        assert_eq!(ins.table, "pts");
        assert_eq!(ins.columns, vec!["x", "y", "z"]);
        assert_eq!(
            ins.values,
            vec![vec![1.0, 4.0], vec![2.0, -5.0], vec![3.0, 6.5]]
        );
        // Arity mismatches and malformed forms are parse errors.
        assert!(parse("INSERT INTO pts (x, y) VALUES (1)").is_err());
        assert!(parse("INSERT INTO pts () VALUES (1)").is_err());
        assert!(parse("INSERT pts (x) VALUES (1)").is_err());
        assert!(parse("INSERT INTO pts (x) VALUES (1),").is_err());
        assert!(
            parse("insert into pts (x) values (7)").is_ok(),
            "case-insensitive"
        );
    }

    #[test]
    fn insert_token_clause() {
        let s = parse("INSERT INTO pts (x) VALUES (1) TOKEN 12345").unwrap();
        let Statement::Insert(ins) = s else {
            panic!("expected INSERT");
        };
        assert_eq!(ins.token, Some(12345));
        let s = parse("insert into pts (x) values (1) token 7").unwrap();
        let Statement::Insert(ins) = s else {
            panic!("expected INSERT");
        };
        assert_eq!(ins.token, Some(7), "keyword is case-insensitive");
        let Statement::Insert(ins) = parse("INSERT INTO pts (x) VALUES (1)").unwrap() else {
            panic!("expected INSERT");
        };
        assert_eq!(ins.token, None, "clause is optional");
        // 0 is the wire-level "no token" sentinel; negative and fractional
        // tokens are nonsense.
        assert!(parse("INSERT INTO pts (x) VALUES (1) TOKEN 0").is_err());
        assert!(parse("INSERT INTO pts (x) VALUES (1) TOKEN -3").is_err());
        assert!(parse("INSERT INTO pts (x) VALUES (1) TOKEN 1.5").is_err());
        assert!(parse("INSERT INTO pts (x) VALUES (1) TOKEN").is_err());
    }

    #[test]
    fn show_recovery_statement() {
        assert_eq!(parse("SHOW RECOVERY").unwrap(), Statement::ShowRecovery);
        assert_eq!(parse("show recovery").unwrap(), Statement::ShowRecovery);
        assert!(
            parse("SHOW RECOVERY now").is_err(),
            "trailing input rejected"
        );
    }

    #[test]
    fn distinct_and_having() {
        let s = select(
            "SELECT DISTINCT classification FROM points \
             GROUP BY classification HAVING COUNT(*) > 10 ORDER BY classification",
        );
        assert!(s.distinct);
        assert!(s.having.is_some());
        assert!(s.having.unwrap().render().contains("COUNT(*)"));
        let s = select("SELECT x FROM points");
        assert!(!s.distinct);
        assert!(s.having.is_none());
    }

    #[test]
    fn alias_forms() {
        let s = select("SELECT * FROM roads AS r WHERE r.id = 1");
        assert_eq!(s.from[0].alias, "r");
        let s = select("SELECT * FROM roads r");
        assert_eq!(s.from[0].alias, "r");
    }

    #[test]
    fn governance_statements() {
        assert_eq!(
            parse("SET STATEMENT_TIMEOUT = 500").unwrap(),
            Statement::SetStatementTimeout(500)
        );
        assert_eq!(
            parse("set statement_timeout = 0").unwrap(),
            Statement::SetStatementTimeout(0),
            "keywords are case-insensitive"
        );
        assert_eq!(
            parse("SET MEM_BUDGET = 1048576").unwrap(),
            Statement::SetMemBudget(1_048_576)
        );
        assert_eq!(parse("KILL 42").unwrap(), Statement::Kill(42));
        assert_eq!(parse("SHOW QUERIES").unwrap(), Statement::ShowQueries);
        assert_eq!(
            parse("SHOW SLOW QUERIES").unwrap(),
            Statement::ShowSlowQueries
        );
        // Malformed forms are parse errors, not panics.
        assert!(parse("SET STATEMENT_TIMEOUT = 2.5").is_err());
        assert!(parse("SET STATEMENT_TIMEOUT = -1").is_err());
        assert!(parse("SET MEM_BUDGET").is_err());
        assert!(parse("SET UNKNOWN_KNOB = 1").is_err());
        assert!(parse("KILL x").is_err());
        assert!(parse("KILL 1 2").is_err(), "trailing input rejected");
        assert!(parse("SHOW FAST QUERIES").is_err());
    }
}
