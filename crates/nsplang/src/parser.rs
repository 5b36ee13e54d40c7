//! Recursive-descent / Pratt parser for the mini-Nsp language.

use crate::ast::{Arg, BinOp, Expr, FuncDef, Spanned, Stmt, Target, UnOp};
use crate::lexer::{lex, LexError, Pos, Tok};

/// Parse error with a 1-based `line:col` position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Source position of the offending token.
    pos: Pos,
    /// Human-readable description.
    message: String,
}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            pos: e.pos,
            message: format!("lex error: {}", e.message),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser {
    toks: Vec<(Tok, Pos)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn here(&self) -> Pos {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|(_, p)| *p)
            .unwrap_or(Pos::NONE)
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            pos: self.here(),
            message: msg.into(),
        }
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {:?}", self.peek())))
        }
    }

    fn skip_separators(&mut self) {
        while matches!(self.peek(), Some(Tok::Newline) | Some(Tok::Semi)) {
            self.pos += 1;
        }
    }

    /// Skip newlines only (inside parenthesised constructs).
    fn skip_newlines(&mut self) {
        while matches!(self.peek(), Some(Tok::Newline)) {
            self.pos += 1;
        }
    }

    // ---- statements --------------------------------------------------------

    fn parse_block(&mut self, terminators: &[Tok]) -> Result<Vec<Spanned>, ParseError> {
        let mut stmts = Vec::new();
        loop {
            self.skip_separators();
            match self.peek() {
                None => break,
                Some(t) if terminators.contains(t) => break,
                _ => stmts.push(self.parse_stmt()?),
            }
        }
        Ok(stmts)
    }

    fn parse_stmt(&mut self) -> Result<Spanned, ParseError> {
        let pos = self.here();
        let kind = self.parse_stmt_kind()?;
        Ok(Spanned { pos, kind })
    }

    fn parse_stmt_kind(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Tok::If) => self.parse_if(),
            Some(Tok::While) => self.parse_while(),
            Some(Tok::For) => self.parse_for(),
            Some(Tok::Break) => {
                self.next();
                Ok(Stmt::Break)
            }
            Some(Tok::Continue) => {
                self.next();
                Ok(Stmt::Continue)
            }
            Some(Tok::Return) => {
                self.next();
                Ok(Stmt::Return)
            }
            Some(Tok::Function) => self.parse_function(),
            Some(Tok::LBracket) => self.parse_multi_assign_or_expr(),
            _ => self.parse_assign_or_expr(),
        }
    }

    fn parse_if(&mut self) -> Result<Stmt, ParseError> {
        self.expect(&Tok::If)?;
        let mut arms = Vec::new();
        let cond = self.parse_expr()?;
        self.eat(&Tok::Then);
        let body = self.parse_block(&[Tok::Else, Tok::Elseif, Tok::End])?;
        arms.push((cond, body));
        let mut else_body = Vec::new();
        loop {
            if self.eat(&Tok::Elseif) {
                let c = self.parse_expr()?;
                self.eat(&Tok::Then);
                let b = self.parse_block(&[Tok::Else, Tok::Elseif, Tok::End])?;
                arms.push((c, b));
            } else if self.eat(&Tok::Else) {
                else_body = self.parse_block(&[Tok::End])?;
                self.expect(&Tok::End)?;
                break;
            } else {
                self.expect(&Tok::End)?;
                break;
            }
        }
        Ok(Stmt::If { arms, else_body })
    }

    fn parse_while(&mut self) -> Result<Stmt, ParseError> {
        self.expect(&Tok::While)?;
        let cond = self.parse_expr()?;
        // Nsp accepts both `while c then` and `while c do`.
        let _ = self.eat(&Tok::Then) || self.eat(&Tok::Do);
        let body = self.parse_block(&[Tok::End])?;
        self.expect(&Tok::End)?;
        Ok(Stmt::While { cond, body })
    }

    fn parse_for(&mut self) -> Result<Stmt, ParseError> {
        self.expect(&Tok::For)?;
        let var = match self.next() {
            Some(Tok::Ident(name)) => name,
            other => return Err(self.err(format!("expected loop variable, found {other:?}"))),
        };
        self.expect(&Tok::Assign)?;
        let iter = self.parse_expr()?;
        let _ = self.eat(&Tok::Do) || self.eat(&Tok::Then);
        let body = self.parse_block(&[Tok::End])?;
        self.expect(&Tok::End)?;
        Ok(Stmt::For { var, iter, body })
    }

    fn parse_function(&mut self) -> Result<Stmt, ParseError> {
        self.expect(&Tok::Function)?;
        // Forms: function [a,b] = name(params) | function a = name(params)
        //        | function name(params)
        let mut outs = Vec::new();
        let name;
        if self.eat(&Tok::LBracket) {
            loop {
                match self.next() {
                    Some(Tok::Ident(o)) => outs.push(o),
                    Some(Tok::RBracket) => break,
                    Some(Tok::Comma) => {}
                    other => return Err(self.err(format!("bad function outputs: {other:?}"))),
                }
            }
            if !self.eat(&Tok::RBracket) && outs.is_empty() {
                return Err(self.err("empty function output list"));
            }
            self.expect(&Tok::Assign)?;
            name = match self.next() {
                Some(Tok::Ident(n)) => n,
                other => return Err(self.err(format!("expected function name: {other:?}"))),
            };
        } else {
            let first = match self.next() {
                Some(Tok::Ident(n)) => n,
                other => return Err(self.err(format!("expected function name: {other:?}"))),
            };
            if self.eat(&Tok::Assign) {
                outs.push(first);
                name = match self.next() {
                    Some(Tok::Ident(n)) => n,
                    other => return Err(self.err(format!("expected function name: {other:?}"))),
                };
            } else {
                name = first;
            }
        }
        let mut params = Vec::new();
        if self.eat(&Tok::LParen) {
            loop {
                self.skip_newlines();
                match self.next() {
                    Some(Tok::Ident(p)) => params.push(p),
                    Some(Tok::RParen) => break,
                    Some(Tok::Comma) => {}
                    other => return Err(self.err(format!("bad parameter list: {other:?}"))),
                }
            }
        }
        let body = self.parse_block(&[Tok::EndFunction])?;
        self.expect(&Tok::EndFunction)?;
        Ok(Stmt::FuncDef(FuncDef {
            name,
            params,
            outs,
            body,
        }))
    }

    /// `[a, b] = f(...)` multi-assignment — or a matrix-literal expression
    /// statement (rare but legal).
    fn parse_multi_assign_or_expr(&mut self) -> Result<Stmt, ParseError> {
        let save = self.pos;
        // Try multi-assign: [ident, ident, ...] = expr
        self.expect(&Tok::LBracket)?;
        let mut targets = Vec::new();
        let mut ok = true;
        loop {
            match self.next() {
                Some(Tok::Ident(n)) => {
                    targets.push(Target::Ident(n));
                    match self.next() {
                        Some(Tok::Comma) => {}
                        Some(Tok::RBracket) => break,
                        _ => {
                            ok = false;
                            break;
                        }
                    }
                }
                Some(Tok::RBracket) => break,
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if ok && self.eat(&Tok::Assign) && !targets.is_empty() {
            let rhs = self.parse_expr()?;
            return Ok(Stmt::Assign(targets, rhs));
        }
        // Not a multi-assign — reparse as expression.
        self.pos = save;
        let e = self.parse_expr()?;
        Ok(Stmt::Expr(e))
    }

    fn parse_assign_or_expr(&mut self) -> Result<Stmt, ParseError> {
        let save = self.pos;
        let expr = self.parse_expr()?;
        if self.eat(&Tok::Assign) {
            // Convert the parsed expression into an assignment target.
            let target =
                expr_to_target(&expr).ok_or_else(|| self.err("invalid assignment target"))?;
            let rhs = self.parse_expr()?;
            return Ok(Stmt::Assign(vec![target], rhs));
        }
        let _ = save;
        Ok(Stmt::Expr(expr))
    }

    // ---- expressions --------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_and()?;
        while self.eat(&Tok::Or) {
            let rhs = self.parse_and()?;
            lhs = Expr::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_comparison()?;
        while self.eat(&Tok::And) {
            let rhs = self.parse_comparison()?;
            lhs = Expr::Binary(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_range()?;
        let op = match self.peek() {
            Some(Tok::Eq) => BinOp::Eq,
            Some(Tok::Ne) => BinOp::Ne,
            Some(Tok::Lt) => BinOp::Lt,
            Some(Tok::Gt) => BinOp::Gt,
            Some(Tok::Le) => BinOp::Le,
            Some(Tok::Ge) => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.next();
        let rhs = self.parse_range()?;
        Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs)))
    }

    fn parse_range(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_additive()?;
        if self.eat(&Tok::Colon) {
            let mid = self.parse_additive()?;
            if self.eat(&Tok::Colon) {
                let hi = self.parse_additive()?;
                return Ok(Expr::Range(
                    Box::new(lhs),
                    Some(Box::new(mid)),
                    Box::new(hi),
                ));
            }
            return Ok(Expr::Range(Box::new(lhs), None, Box::new(mid)));
        }
        Ok(lhs)
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.next();
            let rhs = self.parse_multiplicative()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                _ => break,
            };
            self.next();
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Tok::Minus) {
            let e = self.parse_unary()?;
            return Ok(Expr::Unary(UnOp::Neg, Box::new(e)));
        }
        if self.eat(&Tok::Not) {
            let e = self.parse_unary()?;
            return Ok(Expr::Unary(UnOp::Not, Box::new(e)));
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.parse_primary()?;
        loop {
            match self.peek() {
                Some(Tok::LParen) => {
                    self.next();
                    let args = self.parse_args(&Tok::RParen)?;
                    e = Expr::Apply(Box::new(e), args);
                }
                Some(Tok::Dot) => {
                    self.next();
                    let name = match self.next() {
                        Some(Tok::Ident(n)) => n,
                        other => {
                            return Err(self.err(format!("expected field name, got {other:?}")))
                        }
                    };
                    if self.eat(&Tok::LBracket) {
                        let args = self.parse_args(&Tok::RBracket)?;
                        e = Expr::MethodCall(Box::new(e), name, args);
                    } else {
                        e = Expr::Field(Box::new(e), name);
                    }
                }
                Some(Tok::Quote) => {
                    self.next();
                    e = Expr::Transpose(Box::new(e));
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn parse_args(&mut self, close: &Tok) -> Result<Vec<Arg>, ParseError> {
        let mut args = Vec::new();
        self.skip_newlines();
        if self.eat(close) {
            return Ok(args);
        }
        loop {
            self.skip_newlines();
            // Keyword argument: ident = expr (lookahead).
            if let (Some(Tok::Ident(name)), Some(Tok::Assign)) = (
                self.toks.get(self.pos).map(|(t, _)| t.clone()).as_ref(),
                self.toks.get(self.pos + 1).map(|(t, _)| t),
            ) {
                let name = name.clone();
                self.pos += 2;
                let v = self.parse_expr()?;
                args.push(Arg::Kw(name, v));
            } else {
                args.push(Arg::Pos(self.parse_expr()?));
            }
            self.skip_newlines();
            if self.eat(&Tok::Comma) {
                continue;
            }
            self.expect(close)?;
            break;
        }
        Ok(args)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.next() {
            Some(Tok::Num(v)) => Ok(Expr::Num(v)),
            Some(Tok::Str(s)) => Ok(Expr::Str(s)),
            Some(Tok::True) => Ok(Expr::Bool(true)),
            Some(Tok::False) => Ok(Expr::Bool(false)),
            Some(Tok::Ident(n)) => Ok(Expr::Ident(n)),
            Some(Tok::LParen) => {
                let e = self.parse_expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::LBracket) => {
                // Matrix literal: rows separated by ; or newline, entries
                // by ,.
                let mut rows: Vec<Vec<Expr>> = Vec::new();
                let mut row: Vec<Expr> = Vec::new();
                loop {
                    match self.peek() {
                        Some(Tok::RBracket) => {
                            self.next();
                            break;
                        }
                        Some(Tok::Semi) | Some(Tok::Newline) => {
                            self.next();
                            if !row.is_empty() {
                                rows.push(std::mem::take(&mut row));
                            }
                        }
                        Some(Tok::Comma) => {
                            self.next();
                        }
                        None => return Err(self.err("unterminated matrix literal")),
                        _ => row.push(self.parse_expr()?),
                    }
                }
                if !row.is_empty() {
                    rows.push(row);
                }
                Ok(Expr::Matrix(rows))
            }
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }
}

/// Convert an already-parsed expression into an assignment target.
fn expr_to_target(e: &Expr) -> Option<Target> {
    match e {
        Expr::Ident(n) => Some(Target::Ident(n.clone())),
        Expr::Apply(inner, args) => match inner.as_ref() {
            Expr::Ident(n) => Some(Target::Index(n.clone(), args.clone())),
            _ => None,
        },
        Expr::Field(inner, name) => {
            let base = expr_to_target(inner)?;
            Some(Target::Field(Box::new(base), name.clone()))
        }
        _ => None,
    }
}

/// Parse a full program into position-annotated statements.
pub fn parse_program(src: &str) -> Result<Vec<Spanned>, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let stmts = p.parse_block(&[])?;
    if p.pos < p.toks.len() {
        return Err(p.err(format!("trailing input: {:?}", p.peek())));
    }
    Ok(stmts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_assignment() {
        let prog = parse_program("x = 1 + 2 * 3").unwrap();
        assert_eq!(prog.len(), 1);
        match &prog[0].kind {
            Stmt::Assign(targets, Expr::Binary(BinOp::Add, _, _)) => {
                assert_eq!(targets, &vec![Target::Ident("x".into())]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_assignment() {
        let prog = parse_program("[a, b] = f(1)").unwrap();
        match &prog[0].kind {
            Stmt::Assign(targets, Expr::Apply(_, _)) => assert_eq!(targets.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn indexed_assignment_like_fig4() {
        let prog = parse_program("Lpb(1:k-1) = []").unwrap();
        match &prog[0].kind {
            Stmt::Assign(targets, Expr::Matrix(rows)) => {
                assert!(rows.is_empty());
                assert!(matches!(targets[0], Target::Index(_, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn field_assignment() {
        let prog = parse_program("H.A = rand(4,5)").unwrap();
        match &prog[0].kind {
            Stmt::Assign(targets, _) => {
                assert!(matches!(targets[0], Target::Field(_, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn method_call_with_kwargs() {
        let prog = parse_program("P.set_asset[str=\"equity\"]").unwrap();
        match &prog[0].kind {
            Stmt::Expr(Expr::MethodCall(_, name, args)) => {
                assert_eq!(name, "set_asset");
                assert!(
                    matches!(&args[0], Arg::Kw(k, Expr::Str(v)) if k == "str" && v == "equity")
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn if_elseif_else() {
        let src = "if a == 1 then\n x=1\nelseif a == 2 then\n x=2\nelse\n x=3\nend";
        let prog = parse_program(src).unwrap();
        match &prog[0].kind {
            Stmt::If { arms, else_body } => {
                assert_eq!(arms.len(), 2);
                assert_eq!(else_body.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn while_true_break() {
        let src = "while %t then\n  break\nend";
        let prog = parse_program(src).unwrap();
        match &prog[0].kind {
            Stmt::While { body, .. } => assert_eq!(body[0].kind, Stmt::Break),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn for_over_transposed_slice() {
        let src = "for pb = Lpb(1:n)' do\n  x = pb\nend";
        let prog = parse_program(src).unwrap();
        match &prog[0].kind {
            Stmt::For { var, iter, .. } => {
                assert_eq!(var, "pb");
                assert!(matches!(iter, Expr::Transpose(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn function_definition() {
        let src = "function [sl, result] = receive_res ()\n sl = 1\n result = 2\nendfunction";
        let prog = parse_program(src).unwrap();
        match &prog[0].kind {
            Stmt::FuncDef(f) => {
                assert_eq!(f.name, "receive_res");
                assert_eq!(f.outs, vec!["sl", "result"]);
                assert!(f.params.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn matrix_literal_rows() {
        let prog = parse_program("m = [1, 2; 3, 4]").unwrap();
        match &prog[0].kind {
            Stmt::Assign(_, Expr::Matrix(rows)) => {
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0].len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn range_with_step() {
        let prog = parse_program("r = 0:0.5:2").unwrap();
        match &prog[0].kind {
            Stmt::Assign(_, Expr::Range(_, Some(_), _)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fig4_master_fragment_parses() {
        let src = r#"
Nt = size(Lpb, '*');
nb_per_node = floor(Nt / (mpi_size-1));
slv = 1;
for pb = Lpb(1:mpi_size-1)' do
  send_premia_pb(pb, slv); slv = slv + 1;
end
res = list();
Lpb(1:mpi_size-1) = [];
"#;
        assert!(parse_program(src).is_ok(), "{:?}", parse_program(src));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_program("x = 1 )").is_err());
    }
}
