//! Recursive-descent / Pratt parser producing the [`crate::ast`] types.

use core::fmt;

use crate::ast::{BinOp, Expr, FunctionDecl, Script, Stmt, UnOp};
use crate::lexer::{lex, LexError, Token};

/// A parse error.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ParseError {
    /// Token index of the failure.
    pub(crate) at: usize,
    /// Description.
    pub(crate) msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at token {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            at: e.at,
            msg: e.msg,
        }
    }
}

/// Parses a source string into a [`Script`].
pub(crate) fn parse(src: &str) -> Result<Script, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut stmts = Vec::new();
    while !p.check(&Token::Eof) {
        stmts.push(p.statement()?);
    }
    Ok(Script { stmts })
}

/// Maximum expression/statement nesting before the parser bails out
/// (prevents stack exhaustion on adversarial input — UCs may receive
/// arbitrary client source).
const MAX_DEPTH: u32 = 200;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: u32,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn check(&self, t: &Token) -> bool {
        self.peek() == t
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.check(t) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn err(&self, msg: String) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            Err(self.err("expression nesting too deep".into()))
        } else {
            Ok(())
        }
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.advance() {
            Token::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        self.enter()?;
        let s = self.statement_inner();
        self.leave();
        s
    }

    fn statement_inner(&mut self) -> Result<Stmt, ParseError> {
        match self.peek().clone() {
            Token::Let => {
                self.advance();
                let name = self.ident()?;
                self.expect(&Token::Assign)?;
                let value = self.expression()?;
                self.eat(&Token::Semi);
                Ok(Stmt::Let(name, value))
            }
            Token::Function => {
                self.advance();
                let name = self.ident()?;
                self.expect(&Token::LParen)?;
                let mut params = Vec::new();
                if !self.check(&Token::RParen) {
                    loop {
                        params.push(self.ident()?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Token::RParen)?;
                let body = self.block()?;
                Ok(Stmt::Function(FunctionDecl { name, params, body }))
            }
            Token::Return => {
                self.advance();
                if self.eat(&Token::Semi) || self.check(&Token::RBrace) {
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.expression()?;
                    self.eat(&Token::Semi);
                    Ok(Stmt::Return(Some(e)))
                }
            }
            Token::If => {
                self.advance();
                self.expect(&Token::LParen)?;
                let cond = self.expression()?;
                self.expect(&Token::RParen)?;
                let then = self.block_or_single()?;
                let els = if self.eat(&Token::Else) {
                    if self.check(&Token::If) {
                        vec![self.statement()?]
                    } else {
                        self.block_or_single()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If(cond, then, els))
            }
            Token::While => {
                self.advance();
                self.expect(&Token::LParen)?;
                let cond = self.expression()?;
                self.expect(&Token::RParen)?;
                let body = self.block_or_single()?;
                Ok(Stmt::While(cond, body))
            }
            Token::For => {
                // Desugar `for (init; cond; step) body` into init + while.
                self.advance();
                self.expect(&Token::LParen)?;
                let init = if self.check(&Token::Semi) {
                    None
                } else {
                    Some(self.statement()?)
                };
                self.eat(&Token::Semi);
                let cond = if self.check(&Token::Semi) {
                    Expr::Bool(true)
                } else {
                    self.expression()?
                };
                self.expect(&Token::Semi)?;
                let step = if self.check(&Token::RParen) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect(&Token::RParen)?;
                let mut body = self.block_or_single()?;
                if let Some(step) = step {
                    body.push(Stmt::Expr(step));
                }
                let desugared = Stmt::While(cond, body);
                Ok(match init {
                    // Wrap in a synthetic block via if(true) to scope init
                    // alongside the loop; miniscript scoping is function-
                    // level so a flat sequence is equivalent.
                    Some(init) => Stmt::If(Expr::Bool(true), vec![init, desugared], Vec::new()),
                    None => desugared,
                })
            }
            Token::Break => {
                self.advance();
                self.eat(&Token::Semi);
                Ok(Stmt::Break)
            }
            Token::Continue => {
                self.advance();
                self.eat(&Token::Semi);
                Ok(Stmt::Continue)
            }
            _ => {
                let e = self.expression()?;
                self.eat(&Token::Semi);
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(&Token::LBrace)?;
        let mut stmts = Vec::new();
        while !self.check(&Token::RBrace) {
            if self.check(&Token::Eof) {
                return Err(self.err("unterminated block".into()));
            }
            stmts.push(self.statement()?);
        }
        self.expect(&Token::RBrace)?;
        Ok(stmts)
    }

    fn block_or_single(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if self.check(&Token::LBrace) {
            self.block()
        } else {
            Ok(vec![self.statement()?])
        }
    }

    fn expression(&mut self) -> Result<Expr, ParseError> {
        self.enter()?;
        let e = self.assignment();
        self.leave();
        e
    }

    fn assignment(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.binary(0)?;
        let compound = match self.peek() {
            Token::Assign => None,
            Token::PlusAssign => Some(BinOp::Add),
            Token::MinusAssign => Some(BinOp::Sub),
            Token::StarAssign => Some(BinOp::Mul),
            _ => return Ok(lhs),
        };
        self.advance();
        match lhs {
            Expr::Var(_) | Expr::Index(..) | Expr::Prop(..) => {
                let rhs = self.assignment()?;
                // `a op= b` desugars to `a = a op b`. For index/property
                // targets the container expression is re-evaluated, which
                // is fine for miniscript's side-effect-free l-values.
                let rhs = match compound {
                    Some(op) => Expr::Bin(op, Box::new(lhs.clone()), Box::new(rhs)),
                    None => rhs,
                };
                Ok(Expr::Assign(Box::new(lhs), Box::new(rhs)))
            }
            _ => Err(self.err("invalid assignment target".into())),
        }
    }

    fn bin_op_of(token: &Token) -> Option<(BinOp, u8)> {
        // Precedence: higher binds tighter.
        Some(match token {
            Token::Or => (BinOp::Or, 1),
            Token::And => (BinOp::And, 2),
            Token::Eq => (BinOp::Eq, 3),
            Token::Ne => (BinOp::Ne, 3),
            Token::Lt => (BinOp::Lt, 4),
            Token::Le => (BinOp::Le, 4),
            Token::Gt => (BinOp::Gt, 4),
            Token::Ge => (BinOp::Ge, 4),
            Token::Plus => (BinOp::Add, 5),
            Token::Minus => (BinOp::Sub, 5),
            Token::Star => (BinOp::Mul, 6),
            Token::Slash => (BinOp::Div, 6),
            Token::Percent => (BinOp::Mod, 6),
            _ => return None,
        })
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = Self::bin_op_of(self.peek()) {
            if prec < min_prec {
                break;
            }
            self.advance();
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        self.enter()?;
        let e = if self.eat(&Token::Minus) {
            self.unary().map(|e| Expr::Un(UnOp::Neg, Box::new(e)))
        } else if self.eat(&Token::Not) {
            self.unary().map(|e| Expr::Un(UnOp::Not, Box::new(e)))
        } else {
            self.postfix()
        };
        self.leave();
        e
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            if self.eat(&Token::LParen) {
                let mut args = Vec::new();
                if !self.check(&Token::RParen) {
                    loop {
                        args.push(self.expression()?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Token::RParen)?;
                e = Expr::Call(Box::new(e), args);
            } else if self.eat(&Token::LBracket) {
                let idx = self.expression()?;
                self.expect(&Token::RBracket)?;
                e = Expr::Index(Box::new(e), Box::new(idx));
            } else if self.eat(&Token::Dot) {
                let name = self.ident()?;
                e = Expr::Prop(Box::new(e), name);
            } else {
                return Ok(e);
            }
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.advance() {
            Token::Num(n) => Ok(Expr::Num(n)),
            Token::Str(s) => Ok(Expr::Str(s)),
            Token::Bool(b) => Ok(Expr::Bool(b)),
            Token::Null => Ok(Expr::Null),
            Token::Ident(name) => Ok(Expr::Var(name)),
            Token::LParen => {
                let e = self.expression()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::LBracket => {
                let mut items = Vec::new();
                if !self.check(&Token::RBracket) {
                    loop {
                        items.push(self.expression()?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Token::RBracket)?;
                Ok(Expr::Array(items))
            }
            Token::LBrace => {
                let mut pairs = Vec::new();
                if !self.check(&Token::RBrace) {
                    loop {
                        let key = match self.advance() {
                            Token::Ident(s) | Token::Str(s) => s,
                            other => {
                                return Err(
                                    self.err(format!("expected object key, found {other:?}"))
                                )
                            }
                        };
                        self.expect(&Token::Colon)?;
                        pairs.push((key, self.expression()?));
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Token::RBrace)?;
                Ok(Expr::Object(pairs))
            }
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_let_and_arith_precedence() {
        let s = parse("let x = 1 + 2 * 3;").unwrap();
        assert_eq!(
            s.stmts[0],
            Stmt::Let(
                "x".into(),
                Expr::Bin(
                    BinOp::Add,
                    Box::new(Expr::Num(1.0)),
                    Box::new(Expr::Bin(
                        BinOp::Mul,
                        Box::new(Expr::Num(2.0)),
                        Box::new(Expr::Num(3.0))
                    ))
                )
            )
        );
    }

    #[test]
    fn parses_function_decl() {
        let s = parse("function f(a, b) { return a + b; }").unwrap();
        match &s.stmts[0] {
            Stmt::Function(f) => {
                assert_eq!(f.name, "f");
                assert_eq!(f.params, vec!["a", "b"]);
                assert_eq!(f.body.len(), 1);
            }
            other => panic!("expected function, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_else_chain() {
        let s = parse("if (a) { 1; } else if (b) { 2; } else { 3; }").unwrap();
        match &s.stmts[0] {
            Stmt::If(_, then, els) => {
                assert_eq!(then.len(), 1);
                assert!(matches!(els[0], Stmt::If(..)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn desugars_for_loop() {
        let s = parse("for (let i = 0; i < 3; i = i + 1) { x; }").unwrap();
        // init wrapped with the while in a constant-true if.
        match &s.stmts[0] {
            Stmt::If(Expr::Bool(true), body, _) => {
                assert!(matches!(body[0], Stmt::Let(..)));
                assert!(matches!(body[1], Stmt::While(..)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_calls_indexing_props() {
        let s = parse("console.log(a[0].b, f(1, 2));").unwrap();
        match &s.stmts[0] {
            Stmt::Expr(Expr::Call(callee, args)) => {
                assert!(matches!(**callee, Expr::Prop(..)));
                assert_eq!(args.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_object_and_array_literals() {
        let s = parse("let o = { a: 1, 'b': [1, 2, 3] };").unwrap();
        match &s.stmts[0] {
            Stmt::Let(_, Expr::Object(pairs)) => {
                assert_eq!(pairs.len(), 2);
                assert!(matches!(pairs[1].1, Expr::Array(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compound_assignment_desugars() {
        let s = parse("x += 2;").unwrap();
        match &s.stmts[0] {
            Stmt::Expr(Expr::Assign(target, value)) => {
                assert_eq!(**target, Expr::Var("x".into()));
                assert!(matches!(**value, Expr::Bin(BinOp::Add, ..)));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse("a.b *= 3;").is_ok());
        assert!(parse("a[0] -= 1;").is_ok());
        assert!(parse("1 += 2;").is_err());
    }

    #[test]
    fn assignment_targets_validated() {
        assert!(parse("x = 1;").is_ok());
        assert!(parse("a[0] = 1;").is_ok());
        assert!(parse("a.b = 1;").is_ok());
        assert!(parse("1 = 2;").is_err());
    }

    #[test]
    fn nested_calls_and_parens() {
        assert!(parse("f(g(h(1)), (2 + 3) * 4);").is_ok());
    }

    #[test]
    fn error_on_unterminated_block() {
        assert!(parse("function f() { return 1;").is_err());
    }

    #[test]
    fn pathological_nesting_fails_cleanly() {
        // 10 000 nested parens must error, not blow the stack.
        let src = format!("{}1{};", "(".repeat(10_000), ")".repeat(10_000));
        assert!(parse(&src).is_err());
        // 10 000 unary minuses likewise.
        let src = format!("{}1;", "-".repeat(10_000));
        assert!(parse(&src).is_err());
        // Deeply nested blocks.
        let src = format!("{}1;{}", "if (true) { ".repeat(10_000), "}".repeat(10_000));
        assert!(parse(&src).is_err());
        // Reasonable nesting still parses.
        let src = format!("{}1{};", "(".repeat(50), ")".repeat(50));
        assert!(parse(&src).is_ok());
    }

    #[test]
    fn logical_precedence_below_comparison() {
        let s = parse("a < b && c > d;").unwrap();
        match &s.stmts[0] {
            Stmt::Expr(Expr::Bin(BinOp::And, l, r)) => {
                assert!(matches!(**l, Expr::Bin(BinOp::Lt, ..)));
                assert!(matches!(**r, Expr::Bin(BinOp::Gt, ..)));
            }
            other => panic!("{other:?}"),
        }
    }
}
