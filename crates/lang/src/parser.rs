//! Recursive-descent parser with operator precedence.
//!
//! Precedence, loosest to tightest: `OR` < `AND` < `NOT` < comparisons /
//! set comparisons < `UNION`/`INTERSECT`/`EXCEPT` < `+ -` < `* /` < field
//! access. Parenthesized forms are disambiguated by lookahead: `(SELECT …)`
//! is a subquery, `(a = e, b = e)` (two or more fields) is a tuple
//! literal, anything else is grouping.

use std::fmt;

use tmql_algebra::{AggFn, ArithOp, CmpOp, Quantifier, SetBinOp, SetCmpOp};

use crate::ast::{Expr, FromItem};
use crate::lexer::lex;
use crate::token::{Keyword as K, Span, Tok, Token};

/// A parse (or lex) error with source location.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// Where in the source.
    pub span: Span,
}

impl ParseError {
    /// Construct an error.
    pub fn new(message: impl Into<String>, span: Span) -> ParseError {
        ParseError {
            message: message.into(),
            span,
        }
    }

    /// Render with line/column resolved against the original source.
    pub fn render(&self, source: &str) -> String {
        let (line, col) = self.span.line_col(source);
        format!("parse error at {line}:{col}: {}", self.message)
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at bytes {}..{}: {}",
            self.span.start, self.span.end, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest nesting of parentheses, constructors, subqueries and `NOT`s a
/// statement may have. The parser recurses once per level, and so do the
/// type checker, the translator, the optimizer and lowering over the tree
/// it builds; this bound keeps all of them far inside a 2 MB thread stack.
/// It is well above any statement in the paper or the workloads (the
/// deepest nests five levels) and below the storage decoders' limit on
/// stored values, so a value a statement constructs can always be spilled
/// and read back.
pub const MAX_QUERY_NESTING: u32 = 64;

/// Most links — binary operators and field accesses — the operator chains
/// of one statement may have in total. A chain (`a AND a AND …`,
/// `x + x + …`, `s UNION s UNION …`, `x.f.f.f…`) is parsed by iteration, so
/// [`MAX_QUERY_NESTING`] does not see it, but the tree it builds is as deep
/// as the chain is long and everything downstream recurses over that tree.
/// The count is the statement's, not one chain's: a chain can sit in the
/// leftmost operand of another at each precedence and nesting level, so
/// only the total bounds the depth. Far above any written statement (the
/// one with the most links in the workloads and the docs has nine).
pub const MAX_CHAIN_LINKS: u32 = 1024;

/// Parse a complete query (a single expression, usually an SFW block).
pub fn parse_query(src: &str) -> Result<Expr, ParseError> {
    Parser::new(lex(src)?).query()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Recursive entry points currently open (see [`Parser::nested`]).
    depth: u32,
    /// Chain links built so far (see [`Parser::link`]).
    links: u32,
    /// Calls of [`Parser::primary`]; read by the test that pins the
    /// parser's work to the length of its input.
    #[cfg_attr(not(test), allow(dead_code))]
    primary_calls: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
            links: 0,
            primary_calls: 0,
        }
    }

    fn query(&mut self) -> Result<Expr, ParseError> {
        let e = self.expr()?;
        self.require(Tok::Eof)?;
        Ok(e)
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, k: K) -> bool {
        self.eat(&Tok::Kw(k))
    }

    fn require(&mut self, tok: Tok) -> Result<Token, ParseError> {
        if *self.peek() == tok {
            Ok(self.bump())
        } else {
            Err(ParseError::new(
                format!("expected {tok}, found {}", self.peek()),
                self.span(),
            ))
        }
    }

    fn ident(&mut self) -> Result<(String, Span), ParseError> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok((s, span))
            }
            other => Err(ParseError::new(
                format!("expected identifier, found {other}"),
                span,
            )),
        }
    }

    /// Run `parse` one nesting level down, or refuse with a located error
    /// past [`MAX_QUERY_NESTING`]. Every cycle of the grammar passes
    /// through a caller of this: [`Parser::expr`] or the `NOT` chain.
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Parser) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        if self.depth == MAX_QUERY_NESTING {
            return Err(ParseError::new(
                format!("nesting deeper than {MAX_QUERY_NESTING}"),
                self.span(),
            ));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    /// Count one more link of an operator chain, or refuse with a located
    /// error past [`MAX_CHAIN_LINKS`]. Every loop of the grammar that
    /// grows a tree to its left passes through this.
    fn link(&mut self) -> Result<(), ParseError> {
        if self.links == MAX_CHAIN_LINKS {
            return Err(ParseError::new(
                format!("more than {MAX_CHAIN_LINKS} chained operators"),
                self.span(),
            ));
        }
        self.links += 1;
        Ok(())
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(|p| {
            // SELECT at the start of an expression is a bare SFW block.
            if matches!(p.peek(), Tok::Kw(K::Select)) {
                p.sfw()
            } else {
                p.or_expr()
            }
        })
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw(K::Or) {
            self.link()?;
            let rhs = self.and_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw(K::And) {
            self.link()?;
            let rhs = self.not_expr()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        // `NOT IN` is handled in comparison; a leading NOT here is logical
        // negation.
        if matches!(self.peek(), Tok::Kw(K::Not)) && !matches!(self.peek2(), Tok::Kw(K::In)) {
            self.bump();
            let inner = self.nested(Parser::not_expr)?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.set_expr()?;
        let op = match self.peek() {
            Tok::Eq => Some(CmpOp::Eq),
            Tok::Ne => Some(CmpOp::Ne),
            Tok::Lt => Some(CmpOp::Lt),
            Tok::Le => Some(CmpOp::Le),
            Tok::Gt => Some(CmpOp::Gt),
            Tok::Ge => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.set_expr()?;
            return Ok(Expr::Cmp(op, Box::new(lhs), Box::new(rhs)));
        }
        let set_op = match self.peek() {
            Tok::Kw(K::In) => Some(SetCmpOp::In),
            Tok::Kw(K::Not) if matches!(self.peek2(), Tok::Kw(K::In)) => Some(SetCmpOp::NotIn),
            Tok::Kw(K::Subseteq) => Some(SetCmpOp::SubsetEq),
            Tok::Kw(K::Subset) => Some(SetCmpOp::Subset),
            Tok::Kw(K::Superseteq) => Some(SetCmpOp::SupersetEq),
            Tok::Kw(K::Superset) => Some(SetCmpOp::Superset),
            Tok::Kw(K::Disjoint) => Some(SetCmpOp::Disjoint),
            Tok::Kw(K::Intersects) => Some(SetCmpOp::Intersects),
            _ => None,
        };
        if let Some(op) = set_op {
            self.bump();
            if op == SetCmpOp::NotIn {
                self.bump(); // the IN after NOT
            }
            let rhs = self.set_expr()?;
            return Ok(Expr::SetCmp(op, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn set_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.additive()?;
        loop {
            let op = match self.peek() {
                Tok::Kw(K::Union) => SetBinOp::Union,
                Tok::Kw(K::Intersect) => SetBinOp::Intersect,
                Tok::Kw(K::Except) => SetBinOp::Difference,
                _ => break,
            };
            self.bump();
            self.link()?;
            let rhs = self.additive()?;
            lhs = Expr::SetBin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => ArithOp::Add,
                Tok::Minus => ArithOp::Sub,
                _ => break,
            };
            self.bump();
            self.link()?;
            let rhs = self.multiplicative()?;
            lhs = Expr::Arith(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.postfix()?;
        loop {
            let op = match self.peek() {
                Tok::Star => ArithOp::Mul,
                Tok::Slash => ArithOp::Div,
                _ => break,
            };
            self.bump();
            self.link()?;
            let rhs = self.postfix()?;
            lhs = Expr::Arith(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        while self.eat(&Tok::Dot) {
            self.link()?;
            let (field, span) = self.ident()?;
            e = Expr::Field(Box::new(e), field, span);
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        self.primary_calls += 1;
        let span = self.span();
        match self.peek().clone() {
            Tok::Int(i) => {
                self.bump();
                Ok(Expr::Int(i, span))
            }
            Tok::Float(x) => {
                self.bump();
                Ok(Expr::Float(x, span))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Str(s, span))
            }
            Tok::Kw(K::True) => {
                self.bump();
                Ok(Expr::Bool(true, span))
            }
            Tok::Kw(K::False) => {
                self.bump();
                Ok(Expr::Bool(false, span))
            }
            Tok::Minus => {
                // Negative numeric literal.
                self.bump();
                match self.peek().clone() {
                    Tok::Int(i) => {
                        self.bump();
                        Ok(Expr::Int(-i, span))
                    }
                    Tok::Float(x) => {
                        self.bump();
                        Ok(Expr::Float(-x, span))
                    }
                    other => Err(ParseError::new(
                        format!("expected numeric literal after `-`, found {other}"),
                        span,
                    )),
                }
            }
            Tok::Ident(name) => {
                self.bump();
                Ok(Expr::Var(name, span))
            }
            Tok::Kw(k @ (K::Count | K::Sum | K::Min | K::Max | K::Avg)) => {
                self.bump();
                self.require(Tok::LParen)?;
                let arg = self.expr()?;
                self.require(Tok::RParen)?;
                let f = match k {
                    K::Count => AggFn::Count,
                    K::Sum => AggFn::Sum,
                    K::Min => AggFn::Min,
                    K::Max => AggFn::Max,
                    _ => AggFn::Avg,
                };
                Ok(Expr::Agg(f, Box::new(arg), span))
            }
            Tok::Kw(K::Unnest) => {
                self.bump();
                self.require(Tok::LParen)?;
                let arg = self.expr()?;
                self.require(Tok::RParen)?;
                Ok(Expr::Unnest(Box::new(arg), span))
            }
            Tok::Kw(k @ (K::Exists | K::Forall)) => {
                self.bump();
                let (var, _) = self.ident()?;
                self.require(Tok::Kw(K::In))?;
                let over = self.set_expr()?;
                self.require(Tok::LParen)?;
                let pred = self.expr()?;
                self.require(Tok::RParen)?;
                let q = if k == K::Exists {
                    Quantifier::Exists
                } else {
                    Quantifier::Forall
                };
                Ok(Expr::Quant {
                    q,
                    var,
                    over: Box::new(over),
                    pred: Box::new(pred),
                    span,
                })
            }
            Tok::LBrace => {
                self.bump();
                let mut items = Vec::new();
                if !self.eat(&Tok::RBrace) {
                    loop {
                        items.push(self.expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.require(Tok::RBrace)?;
                }
                Ok(Expr::SetLit(items, span))
            }
            Tok::LParen => {
                self.bump();
                // Tuple literal? Needs `ident =` and a second field —
                // single-field tuples are parsed as grouping, which TM
                // disambiguates by type; we document the restriction
                // instead. A comma at this parenthesis' own level is the
                // whole difference, so it is looked for, not parsed for.
                if matches!((self.peek(), self.peek2()), (Tok::Ident(_), Tok::Eq))
                    && self.comma_before_close()
                {
                    return self.tuple_lit(span);
                }
                let inner = self.expr()?;
                self.require(Tok::RParen)?;
                Ok(inner)
            }
            other => Err(ParseError::new(format!("unexpected {other}"), span)),
        }
    }

    /// True iff a comma stands at the current bracket level before the
    /// bracket that closes it.
    fn comma_before_close(&self) -> bool {
        let mut depth = 0usize;
        for t in &self.tokens[self.pos..] {
            match t.tok {
                Tok::LParen | Tok::LBrace => depth += 1,
                Tok::RParen | Tok::RBrace if depth == 0 => return false,
                Tok::RParen | Tok::RBrace => depth -= 1,
                Tok::Comma if depth == 0 => return true,
                _ => {}
            }
        }
        false
    }

    /// Parse `ident = expr (, ident = expr)* )` as a tuple literal;
    /// requires at least two fields (a comma [`Parser::primary`] saw may
    /// belong to a field's own `FROM` list).
    fn tuple_lit(&mut self, span: Span) -> Result<Expr, ParseError> {
        let mut fields = Vec::new();
        loop {
            let (label, lspan) = self.ident()?;
            self.require(Tok::Eq)?;
            let value = self.expr()?;
            if fields.iter().any(|(l, _)| *l == label) {
                return Err(ParseError::new(
                    format!("duplicate tuple label `{label}`"),
                    lspan,
                ));
            }
            fields.push((label, value));
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        if fields.len() < 2 {
            return Err(ParseError::new(
                "tuple literal needs at least two fields",
                span,
            ));
        }
        self.require(Tok::RParen)?;
        Ok(Expr::TupleLit(fields, span))
    }

    /// `SELECT expr FROM operand var (, operand var)* [WHERE expr]`.
    fn sfw(&mut self) -> Result<Expr, ParseError> {
        let span = self.span();
        self.require(Tok::Kw(K::Select))?;
        let select = self.expr()?;
        self.require(Tok::Kw(K::From))?;
        let mut from = Vec::new();
        loop {
            let operand = self.set_expr()?;
            let (var, vspan) = self.ident()?;
            if from.iter().any(|f: &FromItem| f.var == var) {
                return Err(ParseError::new(
                    format!("duplicate FROM variable `{var}`"),
                    vspan,
                ));
            }
            from.push(FromItem {
                operand,
                var,
                span: vspan,
            });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw(K::Where) {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        // The paper's WITH clause for local definitions:
        // `WHERE P(x, z) WITH z = (SELECT …)` (Section 4).
        let mut with_bindings = Vec::new();
        if self.eat_kw(K::With) {
            loop {
                let (var, vspan) = self.ident()?;
                if from.iter().any(|f: &FromItem| f.var == var)
                    || with_bindings
                        .iter()
                        .any(|(v, _): &(String, Expr)| *v == var)
                {
                    return Err(ParseError::new(
                        format!("WITH variable `{var}` shadows an existing binding"),
                        vspan,
                    ));
                }
                self.require(Tok::Eq)?;
                with_bindings.push((var, self.expr()?));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        Ok(Expr::Sfw {
            select: Box::new(select),
            from,
            where_clause,
            with_bindings,
            span,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use tmql_algebra::typing::StaticTables;
    use tmql_model::Ty;

    fn parse(src: &str) -> Expr {
        parse_query(src).unwrap_or_else(|e| panic!("{}", e.render(src)))
    }

    #[test]
    fn parses_paper_query_q1() {
        let q1 = "SELECT d \
                  FROM DEPT d \
                  WHERE (s = d.address.street, c = d.address.city) \
                        IN (SELECT (s = e.address.street, c = e.address.city) FROM d.emps e)";
        let Expr::Sfw {
            select,
            from,
            where_clause,
            ..
        } = parse(q1)
        else {
            panic!("expected SFW")
        };
        assert!(matches!(*select, Expr::Var(ref v, _) if v == "d"));
        assert_eq!(from.len(), 1);
        let w = where_clause.unwrap();
        let Expr::SetCmp(SetCmpOp::In, lhs, rhs) = *w else {
            panic!("IN predicate")
        };
        assert!(matches!(*lhs, Expr::TupleLit(ref fs, _) if fs.len() == 2));
        assert!(matches!(*rhs, Expr::Sfw { .. }));
    }

    #[test]
    fn parses_paper_query_q2() {
        let q2 = "SELECT (dname = d.name, \
                          emps = (SELECT e FROM EMP e WHERE e.address.city = d.address.city)) \
                  FROM DEPT d";
        let Expr::Sfw { select, .. } = parse(q2) else {
            panic!("SFW")
        };
        let Expr::TupleLit(fields, _) = *select else {
            panic!("tuple select")
        };
        assert!(matches!(fields[1].1, Expr::Sfw { .. }));
    }

    #[test]
    fn parses_count_bug_query() {
        let q = "SELECT x FROM R x \
                 WHERE x.b = COUNT((SELECT y.d FROM S y WHERE x.c = y.c))";
        let Expr::Sfw { where_clause, .. } = parse(q) else {
            panic!()
        };
        let Expr::Cmp(CmpOp::Eq, _, rhs) = *where_clause.unwrap() else {
            panic!()
        };
        let Expr::Agg(AggFn::Count, inner, _) = *rhs else {
            panic!("COUNT")
        };
        assert!(matches!(*inner, Expr::Sfw { .. }));
    }

    #[test]
    fn parses_section8_query() {
        let q = "SELECT x FROM X x \
                 WHERE x.a SUBSETEQ (SELECT y.a FROM Y y \
                                     WHERE x.b = y.b AND \
                                           y.c SUBSETEQ (SELECT z.c FROM Z z WHERE y.d = z.d))";
        let e = parse(q);
        assert!(e.has_subquery());
        let Expr::Sfw { where_clause, .. } = e else {
            panic!()
        };
        assert!(matches!(
            *where_clause.unwrap(),
            Expr::SetCmp(SetCmpOp::SubsetEq, ..)
        ));
    }

    #[test]
    fn not_in_and_not_precedence() {
        let e = parse("SELECT x FROM X x WHERE NOT x.a IN (SELECT y.a FROM Y y)");
        let Expr::Sfw { where_clause, .. } = e else {
            panic!()
        };
        assert!(matches!(*where_clause.unwrap(), Expr::Not(_)));
        let e = parse("SELECT x FROM X x WHERE x.a NOT IN (SELECT y.a FROM Y y)");
        let Expr::Sfw { where_clause, .. } = e else {
            panic!()
        };
        assert!(matches!(
            *where_clause.unwrap(),
            Expr::SetCmp(SetCmpOp::NotIn, ..)
        ));
    }

    #[test]
    fn quantifiers() {
        let e = parse("SELECT x FROM X x WHERE EXISTS s IN x.kids (s.age < 10)");
        let Expr::Sfw { where_clause, .. } = e else {
            panic!()
        };
        let Expr::Quant {
            q: Quantifier::Exists,
            var,
            ..
        } = *where_clause.unwrap()
        else {
            panic!("quantifier")
        };
        assert_eq!(var, "s");
        assert!(parse_query("SELECT x FROM X x WHERE FORALL s IN x.kids (TRUE)").is_ok());
    }

    #[test]
    fn multi_from_and_set_ops() {
        let e = parse("SELECT (a = x.a, b = y.b) FROM X x, Y y WHERE x.b = y.b");
        let Expr::Sfw { from, .. } = e else { panic!() };
        assert_eq!(from.len(), 2);
        let e = parse("(SELECT x.a FROM X x) UNION (SELECT y.a FROM Y y)");
        assert!(matches!(e, Expr::SetBin(SetBinOp::Union, ..)));
    }

    #[test]
    fn unnest_and_empty_set() {
        let e = parse("UNNEST(SELECT (SELECT y.b FROM Y y WHERE x.b = y.a) FROM X x)");
        assert!(matches!(e, Expr::Unnest(..)));
        let e = parse("SELECT x FROM X x WHERE (SELECT y.a FROM Y y WHERE x.b = y.b) = {}");
        let Expr::Sfw { where_clause, .. } = e else {
            panic!()
        };
        let Expr::Cmp(CmpOp::Eq, _, rhs) = *where_clause.unwrap() else {
            panic!()
        };
        assert!(matches!(*rhs, Expr::SetLit(ref v, _) if v.is_empty()));
    }

    #[test]
    fn arithmetic_precedence() {
        let e = parse("1 + 2 * 3");
        let Expr::Arith(ArithOp::Add, _, rhs) = e else {
            panic!()
        };
        assert!(matches!(*rhs, Expr::Arith(ArithOp::Mul, ..)));
        let e = parse("-5 + 2");
        assert!(matches!(e, Expr::Arith(ArithOp::Add, ..)));
    }

    #[test]
    fn parse_errors_are_located() {
        let err = parse_query("SELECT x FROM").unwrap_err();
        assert!(err.render("SELECT x FROM").contains("1:14"), "{err:?}");
        assert!(parse_query("SELECT x FROM X x WHERE").is_err());
        // A single-field "(a = 1)" parses as a grouped comparison, not a
        // tuple (documented restriction); the binder rejects `a` later.
        let e = parse_query("SELECT (a = 1) FROM X x").unwrap();
        let Expr::Sfw { select, .. } = e else {
            panic!()
        };
        assert!(matches!(*select, Expr::Cmp(CmpOp::Eq, ..)));
        assert!(
            parse_query("SELECT x FROM X x, X x").is_err(),
            "duplicate var"
        );
        assert!(
            parse_query("SELECT (a = 1, a = 2) FROM X x").is_err(),
            "dup label"
        );
    }

    #[test]
    fn grouping_parens_still_work() {
        let e = parse("SELECT x FROM X x WHERE (x.a = 1 OR x.a = 2) AND x.b = 3");
        let Expr::Sfw { where_clause, .. } = e else {
            panic!()
        };
        assert!(matches!(*where_clause.unwrap(), Expr::And(..)));
    }

    /// `n` levels of each nesting construct around one leaf.
    fn nested_statements(n: usize) -> [String; 4] {
        let select_in = |inner: String| format!("SELECT x FROM X x WHERE x.a IN ({inner})");
        [
            format!("{}1{}", "(".repeat(n), ")".repeat(n)),
            format!("{}TRUE", "NOT ".repeat(n)),
            format!("{}1{}", "{".repeat(n), "}".repeat(n)),
            (1..n).fold("SELECT y.a FROM Y y".to_string(), |q, _| select_in(q)),
        ]
    }

    #[test]
    fn nesting_past_the_limit_is_a_located_error_not_a_stack_overflow() {
        // On a spawned thread: the default 2 MB stack, not the main
        // thread's 8 MB. Each of these aborted the process before the
        // limit existed.
        std::thread::spawn(|| {
            for n in [MAX_QUERY_NESTING as usize + 1, 2_000, 20_000] {
                for src in nested_statements(n) {
                    let err = parse_query(&src).expect_err("too deep to parse");
                    assert!(err.message.contains("nesting deeper than"), "{err}");
                    assert!(err.span.start < src.len(), "located: {err}");
                }
            }
        })
        .join()
        .expect("no panic");
    }

    /// What a statement may be made of, hostile pieces included: every
    /// keyword, characters of two to four bytes in and out of literals,
    /// quotes and brackets that nobody closes.
    fn soup_piece() -> impl proptest::prelude::Strategy<Value = String> {
        use proptest::prelude::*;
        const HOSTILE: &[&str] = &[
            "(",
            ")",
            "{",
            "}",
            ",",
            ".",
            "=",
            "<>",
            "<=",
            "-",
            "--",
            "*",
            "'",
            "\"",
            "\n",
            "é",
            "日本",
            "ß",
            "𝔸",
            "∅",
            "'café'",
            "\"日本語\"",
            "'ß",
            "__x",
            "1.5",
            "x.a",
            "y.b",
        ];
        use crate::token::KEYWORDS;
        prop_oneof![
            (0..HOSTILE.len()).prop_map(|i| HOSTILE[i].to_string()),
            (0..KEYWORDS.len()).prop_map(|i| KEYWORDS[i].0.to_string()),
            "[xyXY]{1,1}".prop_map(|s| s),
            (0i64..99).prop_map(|i| i.to_string()),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Query text is outside input: whatever it is, the front end
        /// answers `Ok` or a typed error located on character boundaries of
        /// the source — on the 2 MB stack of a spawned thread.
        #[test]
        fn token_soups_are_ok_or_a_located_error_never_a_panic(
            pieces in proptest::collection::vec(soup_piece(), 0..40),
            spaced in proptest::prelude::any::<bool>(),
        ) {
            let src = pieces.join(if spaced { " " } else { "" });
            let shown = src.clone();
            let front_end = move || {
                let on_chars = |span: Span| {
                    span.start <= span.end
                        && src.is_char_boundary(span.start)
                        && src.is_char_boundary(span.end)
                };
                if let Err(e) = lex(&src) {
                    assert!(on_chars(e.span), "lex: {e:?}");
                }
                let row = |fields: &[(&str, Ty)]| {
                    Ty::Tuple(fields.iter().map(|(l, t)| (l.to_string(), t.clone())).collect())
                };
                let tables = StaticTables(BTreeMap::from([
                    ("X".to_string(), row(&[("a", Ty::Set(Box::new(Ty::Int))), ("b", Ty::Int)])),
                    ("Y".to_string(), row(&[("a", Ty::Int), ("b", Ty::Str)])),
                ]));
                match parse_query(&src) {
                    Err(e) => assert!(on_chars(e.span), "parse: {e:?}"),
                    Ok(q) => {
                        if let Err(e) = crate::check_query(&q, &tables) {
                            assert!(on_chars(e.span), "check: {e:?}");
                        }
                    }
                }
            };
            let thread = std::thread::Builder::new().stack_size(2 << 20);
            let outcome = thread.spawn(front_end).expect("spawned").join();
            proptest::prop_assert!(outcome.is_ok(), "panicked on {:?}", shown);
        }
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        // One level is the statement itself; a subquery spends two (its
        // parentheses and the clause it sits in).
        let n = MAX_QUERY_NESTING as usize - 1;
        let [parens, nots, braces, _] = nested_statements(n);
        let [.., selects] = nested_statements(n / 2);
        for src in [parens, nots, braces, selects] {
            parse(&src);
        }
        // Sequences are not nesting: a long chain stays one level deep.
        parse(&vec!["x.a = 1"; 500].join(" AND "));
    }

    #[test]
    fn tuple_literal_or_grouping_is_decided_by_lookahead_not_by_parsing_twice() {
        // `(a = (a = … 1 …))`: every level starts like a tuple literal and
        // is a grouping. Parsing the first field to find that out, then
        // parsing it again, doubles the work at every level.
        let nest = |n: usize| format!("{}1{}", "(a = ".repeat(n), ")".repeat(n));
        let tokens = lex(&nest(MAX_QUERY_NESTING as usize - 1)).unwrap();
        let mut p = Parser::new(tokens);
        let mut e = &p.query().expect("one level is the statement itself");
        assert!(p.primary_calls <= p.tokens.len(), "{}", p.primary_calls);
        for _ in 1..MAX_QUERY_NESTING {
            let Expr::Cmp(CmpOp::Eq, _, rhs) = e else {
                panic!("grouped comparison, got {e:?}")
            };
            e = rhs;
        }
        assert!(matches!(e, Expr::Int(1, _)));
        let mut p = Parser::new(lex(&nest(MAX_QUERY_NESTING as usize + 1)).unwrap());
        let err = p.query().expect_err("past the limit");
        assert!(err.message.contains("nesting deeper than"), "{err}");
        assert!(p.primary_calls <= p.tokens.len(), "{}", p.primary_calls);

        // A comma at the parenthesis' own level makes a tuple literal;
        // one inside a nested bracket does not.
        assert!(matches!(parse("(a = 1, b = 2)"), Expr::TupleLit(ref fs, _) if fs.len() == 2));
        assert!(matches!(
            parse("(a = COUNT({1, 2}), b = (c = 1))"),
            Expr::TupleLit(..)
        ));
        assert!(matches!(parse("(a = {1, 2})"), Expr::Cmp(CmpOp::Eq, ..)));
        assert!(matches!(parse("(a = 1 AND b = 2)"), Expr::And(..)));
        let Expr::Cmp(CmpOp::Eq, _, rhs) = parse("(a = (b = 1, c = 2))") else {
            panic!("grouping")
        };
        assert!(matches!(*rhs, Expr::TupleLit(..)));
        // The comma of a field's own FROM list is not a second field.
        assert!(parse_query("(a = SELECT x FROM X x, Y y)").is_err());
        assert!(matches!(
            parse("(a = SELECT x FROM X x, Y y WHERE TRUE, b = 2)"),
            Expr::TupleLit(..)
        ));
    }

    #[test]
    fn operator_chains_past_the_link_limit_are_a_located_error() {
        let chain = |term: &str, op: &str, links: usize| vec![term; links + 1].join(op);
        let max = MAX_CHAIN_LINKS as usize;
        for op in [" OR ", " AND ", " UNION ", " + ", " * "] {
            parse(&chain("1", op, max));
            let src = chain("1", op, max + 1);
            let err = parse_query(&src).expect_err("one link too many");
            assert!(err.message.contains("chained operators"), "{err}");
            assert!(err.span.start < src.len(), "located: {err}");
        }
        parse(&format!("x{}", ".f".repeat(max)));
        assert!(parse_query(&format!("x{}", ".f".repeat(max + 1))).is_err());
        // The budget is the statement's: chains in different operands add up.
        let half = chain("1", " + ", max / 2 + 1);
        assert!(parse_query(&format!("({half}) = ({half})")).is_err());
    }
}
