//! Recursive-descent parser for the query language.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! query     := SELECT select FROM Ident ['*'] Ident
//!              [WHERE expr] [ORDER BY path [ASC|DESC]] [LIMIT Int]
//! select    := item (',' item)*
//! item      := COUNT '(' '*' ')' | path
//! expr      := or
//! or        := and (OR and)*
//! and       := unary (AND unary)*
//! unary     := NOT unary | '(' expr ')' | pred
//! pred      := path (op literal | CONTAINS literal | IS [NOT] NULL)
//!            | var ISA Ident
//! path      := Ident ('.' Ident)*        -- first Ident is the range var
//! op        := = | != | <> | < | <= | > | >= | LIKE
//! literal   := Int | Float | Str | TRUE | FALSE | NULL
//! ```
//!
//! A predicate tree deeper than [`MAX_PREDICATE_DEPTH`] is a parse
//! error: planning, evaluating, printing and dropping a predicate all
//! recurse over its tree, and so does this parser over nested `not`s and
//! parentheses, on whatever stack the caller runs on.

use crate::ast::{CmpOp, Expr, Literal, Path, Query, SelectItem};
use crate::lexer::{lex, Token, TokenKind};
use orion_types::{DbError, DbResult};

/// The deepest predicate tree a query may have: `and`-ed or `or`-ed
/// terms, nested `not`s and parenthesised groups each add a level (a
/// chain of `n` conjuncts is `n` deep).
pub const MAX_PREDICATE_DEPTH: usize = 128;

struct Parser {
    tokens: Vec<Token>,
    at: usize,
    var: Option<String>,
    /// `not`s and open parentheses around the token being parsed.
    nesting: usize,
}

/// Parse one query.
pub fn parse(src: &str) -> DbResult<Query> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, at: 0, var: None, nesting: 0 };
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.at].kind
    }

    fn pos(&self) -> usize {
        self.tokens[self.at].pos
    }

    fn bump(&mut self) -> TokenKind {
        let kind = self.tokens[self.at].kind.clone();
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
        kind
    }

    fn error(&self, message: impl Into<String>) -> DbError {
        DbError::Parse { position: self.pos(), message: message.into() }
    }

    fn is_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.is_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> DbResult<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`")))
        }
    }

    fn expect_ident(&mut self) -> DbResult<String> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_eof(&self) -> DbResult<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.error("trailing input after query"))
        }
    }

    fn query(&mut self) -> DbResult<Query> {
        self.expect_keyword("select")?;
        // The select list references the range variable before we have
        // parsed the `from` clause, so collect raw paths first and
        // validate the variable afterwards.
        let mut raw_select: Vec<RawItem> = vec![self.select_item()?];
        while matches!(self.peek(), TokenKind::Comma) {
            self.bump();
            raw_select.push(self.select_item()?);
        }

        self.expect_keyword("from")?;
        let target = self.expect_ident()?;
        let hierarchy = if matches!(self.peek(), TokenKind::Star) {
            self.bump();
            true
        } else {
            false
        };
        let var = self.expect_ident()?;
        if RESERVED.iter().any(|k| var.eq_ignore_ascii_case(k)) {
            return Err(self.error(format!("`{var}` is a keyword, not a range variable")));
        }
        self.var = Some(var.clone());

        let select = raw_select
            .into_iter()
            .map(|item| self.bind_item(item, &var))
            .collect::<DbResult<Vec<_>>>()?;

        let predicate = if self.eat_keyword("where") { Some(self.expr()?.0) } else { None };

        let order_by = if self.eat_keyword("order") {
            self.expect_keyword("by")?;
            let path = self.var_path()?;
            let asc = if self.eat_keyword("desc") {
                false
            } else {
                self.eat_keyword("asc");
                true
            };
            Some((path, asc))
        } else {
            None
        };

        let limit = if self.eat_keyword("limit") {
            match self.bump() {
                TokenKind::Int(n) if n >= 0 => Some(n as usize),
                _ => return Err(self.error("expected a non-negative integer after `limit`")),
            }
        } else {
            None
        };

        Ok(Query { select, target, hierarchy, var, predicate, order_by, limit })
    }

    fn select_item(&mut self) -> DbResult<RawItem> {
        if self.is_keyword("count") {
            self.bump();
            if !matches!(self.bump(), TokenKind::LParen) {
                return Err(self.error("expected `(` after count"));
            }
            if !matches!(self.bump(), TokenKind::Star) {
                return Err(self.error("expected `*` in count(*)"));
            }
            if !matches!(self.bump(), TokenKind::RParen) {
                return Err(self.error("expected `)` in count(*)"));
            }
            return Ok(RawItem::Count);
        }
        let head = self.expect_ident()?;
        let mut steps = vec![head];
        while matches!(self.peek(), TokenKind::Dot) {
            self.bump();
            steps.push(self.expect_ident()?);
        }
        Ok(RawItem::Path(steps))
    }

    fn bind_item(&self, item: RawItem, var: &str) -> DbResult<SelectItem> {
        match item {
            RawItem::Count => Ok(SelectItem::Count),
            RawItem::Path(steps) => {
                if steps[0] != var {
                    return Err(DbError::Parse {
                        position: 0,
                        message: format!(
                            "select item must start with range variable `{var}`, found `{}`",
                            steps[0]
                        ),
                    });
                }
                if steps.len() == 1 {
                    Ok(SelectItem::Object)
                } else {
                    Ok(SelectItem::Path(Path { steps: steps[1..].to_vec() }))
                }
            }
        }
    }

    /// A `var.attr.attr` path; returns the path *without* the variable.
    fn var_path(&mut self) -> DbResult<Path> {
        let head = self.expect_ident()?;
        let var = self.var.clone().expect("var bound before predicates");
        if head != var {
            return Err(self.error(format!("expected range variable `{var}`, found `{head}`")));
        }
        let mut steps = Vec::new();
        while matches!(self.peek(), TokenKind::Dot) {
            self.bump();
            steps.push(self.expect_ident()?);
        }
        Ok(Path { steps })
    }

    /// One level above a subtree `depth` deep, if that is allowed.
    fn deeper(&self, depth: usize) -> DbResult<usize> {
        if depth >= MAX_PREDICATE_DEPTH {
            return Err(self.error(format!(
                "predicate nests deeper than {MAX_PREDICATE_DEPTH} levels"
            )));
        }
        Ok(depth + 1)
    }

    /// A predicate and its tree's depth.
    fn expr(&mut self) -> DbResult<(Expr, usize)> {
        let (mut left, mut depth) = self.and_expr()?;
        while self.eat_keyword("or") {
            let (right, d) = self.and_expr()?;
            depth = self.deeper(depth.max(d))?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok((left, depth))
    }

    fn and_expr(&mut self) -> DbResult<(Expr, usize)> {
        let (mut left, mut depth) = self.unary()?;
        while self.eat_keyword("and") {
            let (right, d) = self.unary()?;
            depth = self.deeper(depth.max(d))?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok((left, depth))
    }

    fn unary(&mut self) -> DbResult<(Expr, usize)> {
        let not = self.is_keyword("not");
        if !not && !matches!(self.peek(), TokenKind::LParen) {
            return self.predicate().map(|e| {
                let depth = if matches!(e, Expr::Not(_)) { 2 } else { 1 };
                (e, depth)
            });
        }
        // Bound the recursion before taking it.
        self.nesting = self.deeper(self.nesting)?;
        self.bump();
        let parsed = if not {
            let (inner, depth) = self.unary()?;
            (Expr::Not(Box::new(inner)), self.deeper(depth)?)
        } else {
            let inner = self.expr()?;
            if !matches!(self.bump(), TokenKind::RParen) {
                return Err(self.error("expected `)`"));
            }
            inner
        };
        self.nesting -= 1;
        Ok(parsed)
    }

    fn predicate(&mut self) -> DbResult<Expr> {
        let path = self.var_path()?;
        // `v isa Truck`
        if path.steps.is_empty() {
            self.expect_keyword("isa")?;
            let class = self.expect_ident()?;
            return Ok(Expr::IsA { class });
        }
        if self.eat_keyword("contains") {
            let value = self.literal()?;
            return Ok(Expr::Contains { path, value });
        }
        if self.eat_keyword("is") {
            let negated = self.eat_keyword("not");
            self.expect_keyword("null")?;
            let e = Expr::IsNull { path };
            return Ok(if negated { Expr::Not(Box::new(e)) } else { e });
        }
        if self.eat_keyword("like") {
            let value = self.literal()?;
            if !matches!(value, Literal::Str(_)) {
                return Err(self.error("`like` requires a string pattern"));
            }
            return Ok(Expr::Cmp { path, op: CmpOp::Like, value });
        }
        let op = match self.bump() {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            other => return Err(self.error(format!("expected comparison operator, found {other:?}"))),
        };
        let value = self.literal()?;
        Ok(Expr::Cmp { path, op, value })
    }

    fn literal(&mut self) -> DbResult<Literal> {
        if self.eat_keyword("true") {
            return Ok(Literal::Bool(true));
        }
        if self.eat_keyword("false") {
            return Ok(Literal::Bool(false));
        }
        if self.eat_keyword("null") {
            return Ok(Literal::Null);
        }
        match self.bump() {
            TokenKind::Int(i) => Ok(Literal::Int(i)),
            TokenKind::Float(x) => Ok(Literal::Float(x)),
            TokenKind::Str(s) => Ok(Literal::Str(s)),
            other => Err(self.error(format!("expected literal, found {other:?}"))),
        }
    }
}

enum RawItem {
    Count,
    Path(Vec<String>),
}

const RESERVED: &[&str] = &[
    "select", "from", "where", "and", "or", "not", "order", "by", "limit", "contains", "is",
    "null", "isa", "like", "count", "asc", "desc", "true", "false",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_query() {
        // The query from §3.2 of the paper.
        let q = parse(
            "select v from Vehicle v \
             where v.weight > 7500 and v.manufacturer.location = \"Detroit\"",
        )
        .unwrap();
        assert_eq!(q.target, "Vehicle");
        assert!(!q.hierarchy);
        assert_eq!(q.var, "v");
        assert_eq!(q.select, vec![SelectItem::Object]);
        let conjuncts = q.predicate.as_ref().unwrap().conjuncts().len();
        assert_eq!(conjuncts, 2);
    }

    #[test]
    fn hierarchy_scope_star() {
        let q = parse("select v from Vehicle* v").unwrap();
        assert!(q.hierarchy);
        assert!(q.predicate.is_none());
    }

    #[test]
    fn projections_and_count() {
        let q = parse("select v.weight, v.manufacturer.name from Vehicle v").unwrap();
        assert_eq!(
            q.select,
            vec![
                SelectItem::Path(Path::new(vec!["weight"])),
                SelectItem::Path(Path::new(vec!["manufacturer", "name"])),
            ]
        );
        let q = parse("select count(*) from Vehicle* v where v.weight > 0").unwrap();
        assert_eq!(q.select, vec![SelectItem::Count]);
    }

    #[test]
    fn order_and_limit() {
        let q = parse("select v from Vehicle v order by v.weight desc limit 5").unwrap();
        assert_eq!(q.order_by, Some((Path::new(vec!["weight"]), false)));
        assert_eq!(q.limit, Some(5));
        let q = parse("select v from Vehicle v order by v.weight asc").unwrap();
        assert_eq!(q.order_by, Some((Path::new(vec!["weight"]), true)));
    }

    #[test]
    fn boolean_structure_and_precedence() {
        let q = parse(
            "select v from V v where v.a = 1 or v.b = 2 and v.c = 3",
        )
        .unwrap();
        // `and` binds tighter than `or`.
        match q.predicate.unwrap() {
            Expr::Or(_, right) => match *right {
                Expr::And(_, _) => {}
                other => panic!("expected And under Or, got {other:?}"),
            },
            other => panic!("expected Or at top, got {other:?}"),
        }
    }

    #[test]
    fn not_parens_isa_contains_isnull_like() {
        let q = parse(
            "select v from V v where not (v.a = 1) and v isa Truck \
             and v.tags contains \"red\" and v.owner is null and v.name like \"Pro%\"",
        )
        .unwrap();
        let parts = q.predicate.unwrap();
        let conjuncts = parts.conjuncts().len();
        assert_eq!(conjuncts, 5);
    }

    #[test]
    fn is_not_null() {
        let q = parse("select v from V v where v.owner is not null").unwrap();
        match q.predicate.unwrap() {
            Expr::Not(inner) => assert!(matches!(*inner, Expr::IsNull { .. })),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(parse("select from V v").is_err());
        assert!(parse("select v from V v where").is_err());
        assert!(parse("select v from V v where v.x ~ 1").is_err());
        assert!(parse("select v from V v limit -3").is_err());
        assert!(parse("select v from V v extra").is_err(), "trailing tokens rejected");
        assert!(parse("select w from V v where v.x = 1").is_err(), "select var mismatch");
        assert!(parse("select v from V v where w.x = 1").is_err(), "predicate var mismatch");
        assert!(parse("select v from V v where v.name like 5").is_err());
        assert!(parse("select select from V select").is_err(), "keyword as variable");
    }

    #[test]
    fn predicates_deeper_than_the_bound_are_refused() {
        let at_depth = |n: usize, op: &str| {
            let terms = vec!["v.a = 1"; n].join(&format!(" {op} "));
            format!("select v from V v where {terms}")
        };
        let nots = |n: usize| format!("select v from V v where {}v.a = 1", "not ".repeat(n));
        let parens = |n: usize| {
            format!("select v from V v where {}v.a = 1{}", "(".repeat(n), ")".repeat(n))
        };
        for ok in [at_depth(MAX_PREDICATE_DEPTH, "and"), at_depth(MAX_PREDICATE_DEPTH, "or")] {
            assert!(parse(&ok).is_ok());
        }
        assert!(parse(&nots(MAX_PREDICATE_DEPTH - 1)).is_ok());
        assert!(parse(&parens(MAX_PREDICATE_DEPTH)).is_ok());
        // Each of these aborted the process with a stack overflow on a
        // 2 MiB thread before the bound: 400 KB of `not`s, a 240 KB
        // chain of conjuncts, and as many parentheses.
        for deep in [
            nots(100_000),
            at_depth(20_000, "and"),
            at_depth(MAX_PREDICATE_DEPTH + 1, "or"),
            parens(100_000),
        ] {
            let parsed = std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || parse(&deep).map(|q| q.to_string()))
                .unwrap()
                .join()
                .expect("the parser stays on its stack");
            assert!(matches!(parsed, Err(DbError::Parse { .. })), "{parsed:?}");
        }
    }

    #[test]
    fn pretty_print_reparses_to_same_ast() {
        let sources = [
            "select v from Vehicle* v where v.weight > 7500 and \
             v.manufacturer.location = \"Detroit\" order by v.weight desc limit 10",
            "select v.weight from Vehicle v where (v.a = 1 or v.b is null) and not v isa Truck",
            "select count(*) from Company v",
            "select v from V v where v.tags contains \"x\" and v.f >= 2.5",
        ];
        for src in sources {
            let q1 = parse(src).unwrap();
            let printed = q1.to_string();
            let q2 = parse(&printed).unwrap_or_else(|e| panic!("reparse of `{printed}`: {e}"));
            assert_eq!(q1, q2, "fixpoint for `{src}`");
        }
    }
}
