//! Recursive-descent parser for the SQL subset.

use crate::ast::*;
use crate::error::{Result, SqlError};
use crate::lexer::{tokenize_spanned, Span, SpannedToken, Sym, Token};
use crate::schema::ColumnType;
use crate::value::Value;

/// Parse a script of `;`-separated statements.
pub fn parse_statements(sql: &str) -> Result<Vec<Stmt>> {
    let mut p = Parser::new(sql)?;
    let mut stmts = Vec::new();
    loop {
        while p.eat_sym(Sym::Semi) {}
        if p.at_end() {
            return Ok(stmts);
        }
        stmts.push(p.parse_stmt()?);
        if !p.at_end() && !p.eat_sym(Sym::Semi) {
            return Err(p.err("expected ';' between statements"));
        }
    }
}

/// Parse exactly one statement.
pub fn parse_statement(sql: &str) -> Result<Stmt> {
    let mut stmts = parse_statements(sql)?;
    match (stmts.len(), stmts.pop()) {
        (1, Some(stmt)) => Ok(stmt),
        (n, _) => Err(SqlError::Parse(format!(
            "expected one statement, found {n}"
        ))),
    }
}

/// Parse a single `SELECT` (convenience for RQL's Qs/Qq strings).
pub fn parse_select(sql: &str) -> Result<SelectStmt> {
    match parse_statement(sql)? {
        Stmt::Select(s) => Ok(s),
        _ => Err(SqlError::Parse("expected a SELECT statement".into())),
    }
}

struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
    src_len: usize,
}

impl Parser {
    fn new(sql: &str) -> Result<Parser> {
        Ok(Parser {
            tokens: tokenize_spanned(sql)?,
            pos: 0,
            src_len: sql.len(),
        })
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn token_at(&self, offset: usize) -> Option<&Token> {
        self.tokens.get(self.pos + offset).map(|t| &t.token)
    }

    /// Span of the token at the cursor, or an empty span at end of input.
    fn peek_span(&self) -> Span {
        match self.tokens.get(self.pos) {
            Some(t) => t.span,
            None => Span::new(self.src_len, self.src_len),
        }
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|t| t.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: &str) -> SqlError {
        let span = self.peek_span();
        match self.peek() {
            Some(t) => SqlError::parse_at(format!("{msg} (at {t:?})"), span),
            None => SqlError::parse_at(format!("{msg} (at end of input)"), span),
        }
    }

    /// Case-insensitive keyword peek.
    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn peek_kw_at(&self, offset: usize, kw: &str) -> bool {
        matches!(self.token_at(offset), Some(Token::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {kw}")))
        }
    }

    fn eat_sym(&mut self, sym: Sym) -> bool {
        if matches!(self.peek(), Some(Token::Sym(s)) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: Sym) -> Result<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {sym:?}")))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        Ok(self.expect_ident_spanned()?.0)
    }

    fn expect_ident_spanned(&mut self) -> Result<(String, Span)> {
        let span = self.peek_span();
        match self.next() {
            Some(Token::Word(w)) => Ok((w, span)),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected identifier"))
            }
        }
    }

    fn parse_stmt(&mut self) -> Result<Stmt> {
        if self.peek_kw("SELECT") {
            return Ok(Stmt::Select(self.parse_select_stmt()?));
        }
        if self.eat_kw("INSERT") {
            return self.parse_insert();
        }
        if self.eat_kw("UPDATE") {
            return self.parse_update();
        }
        if self.eat_kw("DELETE") {
            return self.parse_delete();
        }
        if self.eat_kw("CREATE") {
            return self.parse_create();
        }
        if self.eat_kw("DROP") {
            self.expect_kw("TABLE")?;
            let if_exists = if self.eat_kw("IF") {
                self.expect_kw("EXISTS")?;
                true
            } else {
                false
            };
            let name = self.expect_ident()?;
            return Ok(Stmt::DropTable { name, if_exists });
        }
        if self.eat_kw("BEGIN") {
            self.eat_kw("TRANSACTION");
            return Ok(Stmt::Begin);
        }
        if self.eat_kw("COMMIT") {
            let with_snapshot = if self.eat_kw("WITH") {
                self.expect_kw("SNAPSHOT")?;
                true
            } else {
                false
            };
            return Ok(Stmt::Commit { with_snapshot });
        }
        if self.eat_kw("ROLLBACK") {
            return Ok(Stmt::Rollback);
        }
        Err(self.err("expected a statement"))
    }

    fn parse_select_stmt(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let mut select = SelectStmt::default();
        // Retro extension: SELECT AS OF <expr> ...
        if self.peek_kw("AS") && self.peek_kw_at(1, "OF") {
            self.pos += 2;
            select.as_of = Some(self.parse_primary()?);
        }
        if self.eat_kw("DISTINCT") {
            select.distinct = true;
        } else {
            self.eat_kw("ALL");
        }
        loop {
            select.items.push(self.parse_select_item()?);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        if self.eat_kw("FROM") {
            select.from.push(self.parse_table_ref()?);
            loop {
                if self.eat_sym(Sym::Comma) {
                    select.from.push(self.parse_table_ref()?);
                } else if self.peek_kw("JOIN")
                    || (self.peek_kw("INNER") && self.peek_kw_at(1, "JOIN"))
                {
                    self.eat_kw("INNER");
                    self.expect_kw("JOIN")?;
                    let table = self.parse_table_ref()?;
                    self.expect_kw("ON")?;
                    let on = self.parse_expr()?;
                    select.joins.push(Join { table, on });
                } else {
                    break;
                }
            }
        }
        if self.eat_kw("WHERE") {
            select.where_clause = Some(self.parse_expr()?);
        }
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                select.group_by.push(self.parse_expr()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("HAVING") {
            select.having = Some(self.parse_expr()?);
        }
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let e = self.parse_expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                select.order_by.push((e, desc));
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("LIMIT") {
            select.limit = Some(self.parse_expr()?);
        }
        Ok(select)
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.eat_sym(Sym::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // t.* pattern.
        if let (Some(Token::Word(w)), Some(Token::Sym(Sym::Dot)), Some(Token::Sym(Sym::Star))) =
            (self.token_at(0), self.token_at(1), self.token_at(2))
        {
            let name = w.clone();
            self.pos += 3;
            return Ok(SelectItem::TableWildcard(name));
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.expect_ident()?)
        } else if let Some(Token::Word(w)) = self.peek() {
            // Bare alias unless it is a clause keyword.
            const CLAUSES: [&str; 12] = [
                "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "JOIN", "INNER", "ON", "AS",
                "UNION", "AND",
            ];
            if CLAUSES.iter().any(|k| w.eq_ignore_ascii_case(k)) {
                None
            } else {
                let w = w.clone();
                self.pos += 1;
                Some(w)
            }
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let (name, span) = self.expect_ident_spanned()?;
        let alias = if self.eat_kw("AS") {
            Some(self.expect_ident()?)
        } else if let Some(Token::Word(w)) = self.peek() {
            const CLAUSES: [&str; 10] = [
                "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "JOIN", "INNER", "ON", "SET",
                "VALUES",
            ];
            if CLAUSES.iter().any(|k| w.eq_ignore_ascii_case(k)) {
                None
            } else {
                let w = w.clone();
                self.pos += 1;
                Some(w)
            }
        } else {
            None
        };
        Ok(TableRef {
            name,
            alias,
            span: Some(span),
        })
    }

    fn parse_insert(&mut self) -> Result<Stmt> {
        self.expect_kw("INTO")?;
        let table = self.expect_ident()?;
        let columns = if self.eat_sym(Sym::LParen) {
            let mut cols = Vec::new();
            loop {
                cols.push(self.expect_ident()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
            Some(cols)
        } else {
            None
        };
        let source = if self.eat_kw("VALUES") {
            let mut rows = Vec::new();
            loop {
                self.expect_sym(Sym::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.parse_expr()?);
                    if !self.eat_sym(Sym::Comma) {
                        break;
                    }
                }
                self.expect_sym(Sym::RParen)?;
                rows.push(row);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else if self.peek_kw("SELECT") {
            InsertSource::Select(Box::new(self.parse_select_stmt()?))
        } else {
            return Err(self.err("expected VALUES or SELECT"));
        };
        Ok(Stmt::Insert {
            table,
            columns,
            source,
        })
    }

    fn parse_update(&mut self) -> Result<Stmt> {
        let table = self.expect_ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.expect_ident()?;
            self.expect_sym(Sym::Eq)?;
            sets.push((col, self.parse_expr()?));
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Stmt::Update {
            table,
            sets,
            where_clause,
        })
    }

    fn parse_delete(&mut self) -> Result<Stmt> {
        self.expect_kw("FROM")?;
        let table = self.expect_ident()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Stmt::Delete {
            table,
            where_clause,
        })
    }

    fn parse_create(&mut self) -> Result<Stmt> {
        let temp = self.eat_kw("TEMP") || self.eat_kw("TEMPORARY");
        if self.eat_kw("INDEX") {
            let name = self.expect_ident()?;
            self.expect_kw("ON")?;
            let table = self.expect_ident()?;
            self.expect_sym(Sym::LParen)?;
            let mut columns = Vec::new();
            loop {
                columns.push(self.expect_ident()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
            return Ok(Stmt::CreateIndex {
                name,
                table,
                columns,
            });
        }
        self.expect_kw("TABLE")?;
        let if_not_exists = if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.expect_ident()?;
        if self.eat_kw("AS") {
            let select = self.parse_select_stmt()?;
            return Ok(Stmt::CreateTableAs { name, select, temp });
        }
        self.expect_sym(Sym::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.expect_ident()?;
            let ty = self.parse_column_type()?;
            columns.push((col, ty));
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        Ok(Stmt::CreateTable {
            name,
            columns,
            temp,
            if_not_exists,
        })
    }

    /// Parse a column's type plus any trailing constraints we accept and
    /// ignore (PRIMARY KEY, NOT NULL, UNIQUE).
    fn parse_column_type(&mut self) -> Result<ColumnType> {
        let mut type_text = String::new();
        while let Some(Token::Word(w)) = self.peek() {
            let upper = w.to_ascii_uppercase();
            if ["PRIMARY", "NOT", "UNIQUE", "DEFAULT"].contains(&upper.as_str()) {
                break;
            }
            type_text.push_str(&upper);
            self.pos += 1;
            // Width spec like VARCHAR(15) or DECIMAL(15,2).
            if self.eat_sym(Sym::LParen) {
                while !self.eat_sym(Sym::RParen) {
                    if self.next().is_none() {
                        return Err(self.err("unterminated type width"));
                    }
                }
            }
        }
        // Swallow ignored constraints.
        loop {
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
            } else if self.eat_kw("NOT") {
                self.expect_kw("NULL")?;
            } else if self.eat_kw("UNIQUE") {
            } else {
                break;
            }
        }
        Ok(ColumnType::parse(&type_text))
    }

    // ---- expressions ---------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    /// `CASE [operand] WHEN e THEN e … [ELSE e] END` (the leading CASE
    /// word has been consumed).
    fn parse_case(&mut self) -> Result<Expr> {
        let operand = if self.peek_kw("WHEN") {
            None
        } else {
            Some(Box::new(self.parse_expr()?))
        };
        let mut arms = Vec::new();
        while self.eat_kw("WHEN") {
            let when = self.parse_expr()?;
            self.expect_kw("THEN")?;
            let then = self.parse_expr()?;
            arms.push((when, then));
        }
        if arms.is_empty() {
            return Err(self.err("CASE requires at least one WHEN arm"));
        }
        let else_branch = if self.eat_kw("ELSE") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_kw("END")?;
        Ok(Expr::Case {
            operand,
            arms,
            else_branch,
        })
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_and()?;
        while self.eat_kw("OR") {
            let rhs = self.parse_and()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_not()?;
        while self.eat_kw("AND") {
            let rhs = self.parse_not()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            let expr = self.parse_not()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(expr),
            });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let lhs = self.parse_additive()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        let negated = if self.peek_kw("NOT")
            && (self.peek_kw_at(1, "IN")
                || self.peek_kw_at(1, "BETWEEN")
                || self.peek_kw_at(1, "LIKE"))
        {
            self.pos += 1;
            true
        } else {
            false
        };
        if self.eat_kw("IN") {
            self.expect_sym(Sym::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.eat_kw("BETWEEN") {
            let lo = self.parse_additive()?;
            self.expect_kw("AND")?;
            let hi = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = self.parse_additive()?;
            return Ok(Expr::Like {
                expr: Box::new(lhs),
                pattern: Box::new(pattern),
                negated,
            });
        }
        let op = match self.peek() {
            Some(Token::Sym(Sym::Eq)) => Some(BinOp::Eq),
            Some(Token::Sym(Sym::Ne)) => Some(BinOp::Ne),
            Some(Token::Sym(Sym::Lt)) => Some(BinOp::Lt),
            Some(Token::Sym(Sym::Le)) => Some(BinOp::Le),
            Some(Token::Sym(Sym::Gt)) => Some(BinOp::Gt),
            Some(Token::Sym(Sym::Ge)) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.parse_additive()?;
            return Ok(Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Sym(Sym::Plus)) => BinOp::Add,
                Some(Token::Sym(Sym::Minus)) => BinOp::Sub,
                Some(Token::Sym(Sym::Concat)) => BinOp::Concat,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.parse_multiplicative()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Sym(Sym::Star)) => BinOp::Mul,
                Some(Token::Sym(Sym::Slash)) => BinOp::Div,
                Some(Token::Sym(Sym::Percent)) => BinOp::Rem,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat_sym(Sym::Minus) {
            let expr = self.parse_unary()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(expr),
            });
        }
        if self.eat_sym(Sym::Plus) {
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Expr::Literal(Value::Integer(i))),
            Some(Token::Float(f)) => Ok(Expr::Literal(Value::Real(f))),
            Some(Token::Str(s)) => Ok(Expr::Literal(Value::Text(s))),
            Some(Token::Sym(Sym::LParen)) => {
                let e = self.parse_expr()?;
                self.expect_sym(Sym::RParen)?;
                Ok(e)
            }
            Some(Token::Sym(Sym::Star)) => Ok(Expr::Star),
            Some(Token::Word(w)) => {
                if w.eq_ignore_ascii_case("NULL") {
                    return Ok(Expr::Literal(Value::Null));
                }
                if w.eq_ignore_ascii_case("CASE") {
                    return self.parse_case();
                }
                // Reserved words cannot start a primary expression; this
                // turns `SELECT FROM t` into a parse error rather than a
                // column named "from".
                const RESERVED: [&str; 14] = [
                    "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "JOIN", "ON", "AND",
                    "OR", "NOT", "SELECT", "SET", "VALUES",
                ];
                if RESERVED.iter().any(|k| w.eq_ignore_ascii_case(k)) {
                    self.pos -= 1;
                    return Err(self.err("expected expression"));
                }
                // Function call?
                if matches!(self.peek(), Some(Token::Sym(Sym::LParen))) {
                    self.pos += 1;
                    let distinct = self.eat_kw("DISTINCT");
                    let mut args = Vec::new();
                    if !self.eat_sym(Sym::RParen) {
                        loop {
                            if self.eat_sym(Sym::Star) {
                                args.push(Expr::Star);
                            } else {
                                args.push(self.parse_expr()?);
                            }
                            if !self.eat_sym(Sym::Comma) {
                                break;
                            }
                        }
                        self.expect_sym(Sym::RParen)?;
                    }
                    return Ok(Expr::Function {
                        name: w.to_ascii_lowercase(),
                        args,
                        distinct,
                    });
                }
                // Qualified column?
                if self.eat_sym(Sym::Dot) {
                    let col = self.expect_ident()?;
                    return Ok(Expr::Column {
                        table: Some(w),
                        name: col,
                    });
                }
                Ok(Expr::Column {
                    table: None,
                    name: w,
                })
            }
            other => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err(&format!("unexpected token {other:?}")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_retro_query() {
        // Figure 3, line 9.
        let s = parse_select("SELECT AS OF 1 * FROM LoggedIn").unwrap();
        assert_eq!(s.as_of, Some(Expr::int(1)));
        assert_eq!(s.items, vec![SelectItem::Wildcard]);
        assert_eq!(s.from[0].name, "LoggedIn");
    }

    #[test]
    fn paper_collate_qq() {
        let s = parse_select("SELECT DISTINCT l_userid, current_snapshot() AS sid FROM LoggedIn")
            .unwrap();
        assert!(s.distinct);
        assert_eq!(s.items.len(), 2);
        match &s.items[1] {
            SelectItem::Expr {
                expr: Expr::Function { name, args, .. },
                alias,
            } => {
                assert_eq!(name, "current_snapshot");
                assert!(args.is_empty());
                assert_eq!(alias.as_deref(), Some("sid"));
            }
            other => panic!("unexpected item {other:?}"),
        }
    }

    #[test]
    fn paper_qq_cpu_cross_join() {
        // Table 1 Qq_cpu.
        let s = parse_select(
            "SELECT SUM(l_extendedprice) AS revenue FROM lineitem, part \
             WHERE p_partkey = l_partkey and p_type = 'STANDARD POLISHED TIN'",
        )
        .unwrap();
        assert_eq!(s.from.len(), 2);
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn paper_qq_agg_group_by() {
        let s = parse_select(
            "SELECT o_custkey, COUNT(*) AS cn, AVG(o_totalprice) AS av \
             FROM orders GROUP BY o_custkey",
        )
        .unwrap();
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.items.len(), 3);
    }

    #[test]
    fn dml_statements() {
        let stmts = parse_statements(
            "BEGIN; DELETE FROM LoggedIn WHERE l_userid = 'UserA'; COMMIT WITH SNAPSHOT;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
        assert_eq!(stmts[0], Stmt::Begin);
        assert!(matches!(stmts[1], Stmt::Delete { .. }));
        assert_eq!(
            stmts[2],
            Stmt::Commit {
                with_snapshot: true
            }
        );
    }

    #[test]
    fn insert_forms() {
        let s = parse_statement(
            "INSERT INTO LoggedIn (l_userid, l_time, l_country) \
             VALUES ('UserD', '2008-11-11 10:08:04', 'UK')",
        )
        .unwrap();
        match s {
            Stmt::Insert {
                table,
                columns,
                source: InsertSource::Values(rows),
            } => {
                assert_eq!(table, "LoggedIn");
                assert_eq!(columns.unwrap().len(), 3);
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0].len(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        let s = parse_statement("INSERT INTO t VALUES (1, 2), (3, 4)").unwrap();
        match s {
            Stmt::Insert {
                source: InsertSource::Values(rows),
                ..
            } => assert_eq!(rows.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse_statement("INSERT INTO t SELECT * FROM u").unwrap(),
            Stmt::Insert {
                source: InsertSource::Select(_),
                ..
            }
        ));
    }

    #[test]
    fn create_table_with_types_and_constraints() {
        let s = parse_statement(
            "CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, \
             o_totalprice DECIMAL(15,2) NOT NULL, o_orderdate DATE, o_comment VARCHAR(79))",
        )
        .unwrap();
        match s {
            Stmt::CreateTable { name, columns, .. } => {
                assert_eq!(name, "orders");
                assert_eq!(columns.len(), 4);
                assert_eq!(columns[0].1, ColumnType::Integer);
                assert_eq!(columns[1].1, ColumnType::Real);
                assert_eq!(columns[2].1, ColumnType::Text);
                assert_eq!(columns[3].1, ColumnType::Text);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn create_table_as_and_index() {
        assert!(matches!(
            parse_statement("CREATE TEMP TABLE r AS SELECT a FROM t").unwrap(),
            Stmt::CreateTableAs { temp: true, .. }
        ));
        match parse_statement("CREATE INDEX idx ON orders (o_custkey, o_orderdate)").unwrap() {
            Stmt::CreateIndex {
                name,
                table,
                columns,
            } => {
                assert_eq!(name, "idx");
                assert_eq!(table, "orders");
                assert_eq!(columns.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let s = parse_select("SELECT 1 + 2 * 3 FROM t").unwrap();
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        // 1 + (2 * 3)
        match expr {
            Expr::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. })),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn where_and_or_precedence() {
        let s = parse_select("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        // OR at top, AND beneath.
        match s.where_clause.unwrap() {
            Expr::Binary {
                op: BinOp::Or, rhs, ..
            } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comparison_extras() {
        let s = parse_select(
            "SELECT * FROM t WHERE a IN (1,2) AND b NOT LIKE 'x%' \
             AND c BETWEEN 1 AND 9 AND d IS NOT NULL",
        )
        .unwrap();
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn joins_and_aliases() {
        let s = parse_select(
            "SELECT o.o_orderkey FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey \
             WHERE l.l_quantity > 10 ORDER BY o.o_orderkey DESC LIMIT 5",
        )
        .unwrap();
        assert_eq!(s.from[0].binding(), "o");
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].table.binding(), "l");
        assert_eq!(s.order_by.len(), 1);
        assert!(s.order_by[0].1);
        assert_eq!(s.limit, Some(Expr::int(5)));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_statement("SELECT FROM").is_err());
        assert!(parse_statement("FLY ME TO THE MOON").is_err());
        assert!(parse_statement("SELECT 1; SELECT 2").is_err()); // two stmts
        assert!(parse_statements("SELECT 1 SELECT 2").is_err()); // missing ;
        assert!(parse_statement("INSERT INTO t").is_err());
    }

    #[test]
    fn parse_errors_carry_spans() {
        // "FROM" is reserved, so the error points at it.
        let err = parse_statement("SELECT FROM t").unwrap_err();
        let span = err.span().expect("span");
        assert_eq!(span, Span::new(7, 11));
        // A dangling operator error points back at the operator.
        let err = parse_statement("SELECT 1 +").unwrap_err();
        assert_eq!(err.span(), Some(Span::new(9, 10)));
        // Pure end-of-input errors use an empty span at the end.
        let err = parse_statement("CREATE TABLE t (a INTEGER").unwrap_err();
        assert_eq!(err.span(), Some(Span::new(25, 25)));
    }

    #[test]
    fn table_refs_carry_spans() {
        let s = parse_select("SELECT * FROM orders o JOIN lineitem l ON 1=1").unwrap();
        let src = "SELECT * FROM orders o JOIN lineitem l ON 1=1";
        let span = s.from[0].span.expect("span");
        assert_eq!(&src[span.start..span.end], "orders");
        let span = s.joins[0].table.span.expect("span");
        assert_eq!(&src[span.start..span.end], "lineitem");
    }

    #[test]
    fn update_statement() {
        match parse_statement("UPDATE t SET a = a + 1, b = 'x' WHERE c < 3").unwrap() {
            Stmt::Update {
                table,
                sets,
                where_clause,
            } => {
                assert_eq!(table, "t");
                assert_eq!(sets.len(), 2);
                assert!(where_clause.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn table_wildcard_item() {
        let s = parse_select("SELECT o.*, l_partkey FROM orders o, lineitem").unwrap();
        assert_eq!(s.items[0], SelectItem::TableWildcard("o".into()));
    }

    #[test]
    fn count_distinct() {
        let s = parse_select("SELECT COUNT(DISTINCT a) FROM t").unwrap();
        let SelectItem::Expr {
            expr: Expr::Function { distinct, .. },
            ..
        } = &s.items[0]
        else {
            panic!()
        };
        assert!(*distinct);
    }
}
