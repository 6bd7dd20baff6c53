//! Recursive-descent parser for the Verilog-2005 + SVA subset.
//!
//! Accepts ANSI-style module headers (`module m(input clk, ...)`) as well as
//! non-ANSI bodies where port directions are declared inside the module.
//! Expressions are parsed with a Pratt loop driven by
//! [`BinaryOp::precedence`].

use crate::ast::*;
use crate::error::{CompileError, Diagnostic, Result};
use crate::lexer::lex;
use crate::source::Span;
use crate::token::{Keyword, Token, TokenKind};

/// Parses a complete source file into a [`SourceUnit`].
///
/// # Errors
///
/// Returns a [`CompileError`] describing the first syntax error, including
/// lexing failures.
///
/// ```
/// let unit = asv_verilog::parse("module m(input a, output y); assign y = ~a; endmodule")?;
/// assert_eq!(unit.modules[0].name, "m");
/// # Ok::<(), asv_verilog::CompileError>(())
/// ```
pub fn parse(src: &str) -> Result<SourceUnit> {
    let tokens = lex(src)?;
    Parser::new(tokens).source_unit()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

/// `list` in an allocation of exactly its length. Every list the parser
/// completes goes into the AST, and a [`crate::Design`] keeps its parsed
/// module for as long as it lives. The items move to a fresh allocation:
/// shrinking in place leaves the freed tails scattered among live blocks,
/// which raised peak memory when judging thousands of patches.
fn trimmed<T>(mut list: Vec<T>) -> Vec<T> {
    if list.len() == list.capacity() {
        return list;
    }
    let mut exact = Vec::with_capacity(list.len());
    exact.append(&mut list);
    exact
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser { tokens, pos: 0 }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, off: usize) -> &TokenKind {
        let i = (self.pos + off).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    /// Consumes the current token and returns it. The kind is moved out,
    /// so an identifier's name reaches the AST without a copy; the parser
    /// never looks back at a consumed token. The final [`TokenKind::Eof`]
    /// stays in place for every later `peek`.
    fn bump(&mut self) -> Token {
        let span = self.tokens[self.pos].span;
        if self.pos + 1 == self.tokens.len() {
            return Token {
                kind: TokenKind::Eof,
                span,
            };
        }
        let kind = std::mem::replace(&mut self.tokens[self.pos].kind, TokenKind::Eof);
        self.pos += 1;
        Token { kind, span }
    }

    /// Consumes the current token, which the caller has peeked to be an
    /// identifier, system identifier or string literal, and returns its
    /// text.
    fn take_text(&mut self) -> (String, Span) {
        let Token { kind, span } = self.bump();
        match kind {
            TokenKind::Ident(text) | TokenKind::SysIdent(text) | TokenKind::Str(text) => {
                (text, span)
            }
            _ => (String::new(), span),
        }
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn at_kw(&self, kw: Keyword) -> bool {
        matches!(self.peek(), TokenKind::Keyword(k) if *k == kw)
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Span> {
        if self.at(kind) {
            Ok(self.bump().span)
        } else {
            Err(self.unexpected(&format!("expected {}", kind.describe())))
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<Span> {
        if self.at_kw(kw) {
            Ok(self.bump().span)
        } else {
            Err(self.unexpected(&format!("expected keyword `{kw}`")))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span)> {
        match self.peek() {
            TokenKind::Ident(_) => Ok(self.take_text()),
            _ => Err(self.unexpected("expected identifier")),
        }
    }

    fn unexpected(&self, msg: &str) -> CompileError {
        CompileError {
            diagnostics: vec![Diagnostic::error(
                format!("{msg}, found {}", self.peek().describe()),
                self.span(),
            )],
        }
    }

    // -- grammar ---------------------------------------------------------

    fn source_unit(&mut self) -> Result<SourceUnit> {
        let mut modules = Vec::new();
        while !self.at(&TokenKind::Eof) {
            modules.push(self.module()?);
        }
        if modules.is_empty() {
            return Err(CompileError::single("no module found", Span::point(0)));
        }
        Ok(SourceUnit { modules })
    }

    fn module(&mut self) -> Result<Module> {
        let start = self.expect_kw(Keyword::Module)?;
        let (name, _) = self.expect_ident()?;
        // Optional parameter header `#(parameter N = 4, ...)`.
        let mut items: Vec<Item> = Vec::new();
        if self.eat(&TokenKind::Hash) {
            self.expect(&TokenKind::LParen)?;
            loop {
                let pstart = self.span();
                self.eat_kw(Keyword::Parameter);
                // Optional range on parameters is accepted and ignored.
                let _ = self.try_range()?;
                let (pname, _) = self.expect_ident()?;
                self.expect(&TokenKind::Assign)?;
                let value = self.expr()?;
                items.push(Item::Param(ParamDecl {
                    local: false,
                    name: pname,
                    value,
                    span: pstart.merge(self.prev_span()),
                }));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        let mut ports = Vec::new();
        if self.eat(&TokenKind::LParen) {
            if !self.at(&TokenKind::RParen) {
                self.port_list(&mut ports)?;
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.expect(&TokenKind::Semi)?;
        while !self.at_kw(Keyword::Endmodule) {
            if self.at(&TokenKind::Eof) {
                return Err(self.unexpected("expected `endmodule`"));
            }
            self.item(&mut items, &mut ports)?;
        }
        let end = self.expect_kw(Keyword::Endmodule)?;
        Ok(Module {
            name,
            ports: trimmed(ports),
            items: trimmed(items),
            span: start.merge(end),
        })
    }

    /// ANSI port list: direction/kind/range are sticky across commas.
    fn port_list(&mut self, ports: &mut Vec<Port>) -> Result<()> {
        let mut dir = PortDir::Input;
        let mut kind = NetKind::Wire;
        let mut range: Option<BitRange> = None;
        loop {
            let pstart = self.span();
            let mut explicit = false;
            if self.eat_kw(Keyword::Input) {
                dir = PortDir::Input;
                kind = NetKind::Wire;
                range = None;
                explicit = true;
            } else if self.eat_kw(Keyword::Output) {
                dir = PortDir::Output;
                kind = NetKind::Wire;
                range = None;
                explicit = true;
            }
            if self.eat_kw(Keyword::Wire) {
                kind = NetKind::Wire;
                explicit = true;
            } else if self.eat_kw(Keyword::Reg) {
                kind = NetKind::Reg;
                explicit = true;
            } else if self.eat_kw(Keyword::Logic) {
                kind = NetKind::Logic;
                explicit = true;
            }
            self.eat_kw(Keyword::Signed);
            if let Some(r) = self.try_range()? {
                range = Some(r);
            } else if explicit {
                range = range.take().filter(|_| false).or(None);
                // Explicit direction without range resets to scalar.
                if explicit {
                    range = None;
                }
            }
            // Re-scan range after reset (direction keyword resets range,
            // then a range may follow).
            if range.is_none() {
                if let Some(r) = self.try_range()? {
                    range = Some(r);
                }
            }
            let (name, nspan) = self.expect_ident()?;
            ports.push(Port {
                dir,
                kind,
                range,
                name,
                span: pstart.merge(nspan),
            });
            if !self.eat(&TokenKind::Comma) {
                return Ok(());
            }
        }
    }

    fn try_range(&mut self) -> Result<Option<BitRange>> {
        if !self.at(&TokenKind::LBracket) {
            return Ok(None);
        }
        // Only constant ranges are supported in declarations.
        self.bump();
        let msb = self.const_u32()?;
        self.expect(&TokenKind::Colon)?;
        let lsb = self.const_u32()?;
        self.expect(&TokenKind::RBracket)?;
        if lsb > msb {
            return Err(CompileError::single(
                "descending ranges `[lsb:msb]` with lsb > msb are not supported",
                self.prev_span(),
            ));
        }
        Ok(Some(BitRange { msb, lsb }))
    }

    fn const_u32(&mut self) -> Result<u32> {
        match *self.peek() {
            TokenKind::Number { value, .. } => {
                self.bump();
                u32::try_from(value)
                    .map_err(|_| CompileError::single("constant out of range", self.prev_span()))
            }
            _ => Err(self.unexpected("expected constant")),
        }
    }

    fn item(&mut self, items: &mut Vec<Item>, ports: &mut Vec<Port>) -> Result<()> {
        let start = self.span();
        match *self.peek() {
            TokenKind::Keyword(Keyword::Input) | TokenKind::Keyword(Keyword::Output) => {
                // Non-ANSI port declarations in the body.
                let dir = if self.eat_kw(Keyword::Input) {
                    PortDir::Input
                } else {
                    self.bump();
                    PortDir::Output
                };
                let mut kind = NetKind::Wire;
                if self.eat_kw(Keyword::Reg) {
                    kind = NetKind::Reg;
                } else if self.eat_kw(Keyword::Wire) {
                    kind = NetKind::Wire;
                } else if self.eat_kw(Keyword::Logic) {
                    kind = NetKind::Logic;
                }
                self.eat_kw(Keyword::Signed);
                let range = self.try_range()?;
                loop {
                    let (name, nspan) = self.expect_ident()?;
                    if let Some(p) = ports.iter_mut().find(|p| p.name == name) {
                        p.dir = dir;
                        p.kind = kind;
                        p.range = range;
                    } else {
                        ports.push(Port {
                            dir,
                            kind,
                            range,
                            name,
                            span: start.merge(nspan),
                        });
                    }
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::Semi)?;
                Ok(())
            }
            TokenKind::Keyword(
                kw @ (Keyword::Wire | Keyword::Reg | Keyword::Logic | Keyword::Integer),
            ) => {
                self.bump();
                let kind = match kw {
                    Keyword::Wire => NetKind::Wire,
                    Keyword::Reg => NetKind::Reg,
                    Keyword::Logic => NetKind::Logic,
                    _ => NetKind::Integer,
                };
                self.eat_kw(Keyword::Signed);
                let range = self.try_range()?;
                let mut names = Vec::new();
                let mut init: Option<(LValue, Expr, Span)> = None;
                loop {
                    let (name, nspan) = self.expect_ident()?;
                    // `wire x = expr;` — declaration with implicit assign.
                    if self.eat(&TokenKind::Assign) {
                        let rhs = self.expr()?;
                        init = Some((
                            LValue::Ident {
                                name: name.clone(),
                                span: nspan,
                            },
                            rhs,
                            start.merge(self.prev_span()),
                        ));
                    }
                    names.push(name);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                let end = self.expect(&TokenKind::Semi)?;
                items.push(Item::Net(NetDecl {
                    kind,
                    range,
                    names: trimmed(names),
                    span: start.merge(end),
                }));
                if let Some((lhs, rhs, span)) = init {
                    items.push(Item::Assign(ContAssign { lhs, rhs, span }));
                }
                Ok(())
            }
            TokenKind::Keyword(kw @ (Keyword::Parameter | Keyword::Localparam)) => {
                self.bump();
                let local = kw == Keyword::Localparam;
                let _ = self.try_range()?;
                loop {
                    let (name, _) = self.expect_ident()?;
                    self.expect(&TokenKind::Assign)?;
                    let value = self.expr()?;
                    items.push(Item::Param(ParamDecl {
                        local,
                        name,
                        value,
                        span: start.merge(self.prev_span()),
                    }));
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::Semi)?;
                Ok(())
            }
            TokenKind::Keyword(Keyword::Assign) => {
                self.bump();
                let lhs = self.lvalue()?;
                self.expect(&TokenKind::Assign)?;
                let rhs = self.expr()?;
                let end = self.expect(&TokenKind::Semi)?;
                items.push(Item::Assign(ContAssign {
                    lhs,
                    rhs,
                    span: start.merge(end),
                }));
                Ok(())
            }
            TokenKind::Keyword(
                kw @ (Keyword::Always | Keyword::AlwaysFf | Keyword::AlwaysComb),
            ) => {
                self.bump();
                let kind = match kw {
                    Keyword::Always => AlwaysKind::Always,
                    Keyword::AlwaysFf => AlwaysKind::Ff,
                    _ => AlwaysKind::Comb,
                };
                let sensitivity = if kind == AlwaysKind::Comb {
                    Sensitivity::Star
                } else {
                    self.sensitivity()?
                };
                let body = self.stmt()?;
                let span = start.merge(body.span());
                items.push(Item::Always(AlwaysBlock {
                    kind,
                    sensitivity,
                    body,
                    span,
                }));
                Ok(())
            }
            TokenKind::Keyword(Keyword::Initial) => {
                self.bump();
                let body = self.stmt()?;
                let span = start.merge(body.span());
                items.push(Item::Initial(InitialBlock { body, span }));
                Ok(())
            }
            TokenKind::Keyword(Keyword::Property) => {
                let p = self.property_decl()?;
                items.push(Item::Property(p));
                Ok(())
            }
            TokenKind::Keyword(Keyword::Assert) => {
                let a = self.assert_directive(None, start)?;
                items.push(Item::Assert(a));
                Ok(())
            }
            TokenKind::Ident(_) if *self.peek_at(1) == TokenKind::Colon => {
                let (label, _) = self.take_text();
                self.bump();
                if self.at_kw(Keyword::Assert) {
                    let a = self.assert_directive(Some(label), start)?;
                    items.push(Item::Assert(a));
                    Ok(())
                } else {
                    Err(self.unexpected("expected `assert` after label"))
                }
            }
            _ => Err(self.unexpected("expected module item")),
        }
    }

    fn sensitivity(&mut self) -> Result<Sensitivity> {
        self.expect(&TokenKind::At)?;
        if self.eat(&TokenKind::Star) {
            return Ok(Sensitivity::Star);
        }
        self.expect(&TokenKind::LParen)?;
        if self.eat(&TokenKind::Star) {
            self.expect(&TokenKind::RParen)?;
            return Ok(Sensitivity::Star);
        }
        let mut list = Vec::new();
        loop {
            let item = if self.eat_kw(Keyword::Posedge) {
                SensItem::Posedge(self.expect_ident()?.0)
            } else if self.eat_kw(Keyword::Negedge) {
                SensItem::Negedge(self.expect_ident()?.0)
            } else {
                SensItem::Level(self.expect_ident()?.0)
            };
            list.push(item);
            if !(self.eat_kw(Keyword::Or) || self.eat(&TokenKind::Comma)) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Sensitivity::List(trimmed(list)))
    }

    fn stmt(&mut self) -> Result<Stmt> {
        let start = self.span();
        match *self.peek() {
            TokenKind::Keyword(Keyword::Begin) => {
                self.bump();
                // Optional block label `begin : name`.
                if self.eat(&TokenKind::Colon) {
                    self.expect_ident()?;
                }
                let mut stmts = Vec::new();
                while !self.at_kw(Keyword::End) {
                    if self.at(&TokenKind::Eof) {
                        return Err(self.unexpected("expected `end`"));
                    }
                    stmts.push(self.stmt()?);
                }
                let end = self.expect_kw(Keyword::End)?;
                Ok(Stmt::Block {
                    stmts: trimmed(stmts),
                    span: start.merge(end),
                })
            }
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let then_branch = Box::new(self.stmt()?);
                let mut else_branch = None;
                let mut span = start.merge(then_branch.span());
                if self.eat_kw(Keyword::Else) {
                    let e = self.stmt()?;
                    span = span.merge(e.span());
                    else_branch = Some(Box::new(e));
                }
                Ok(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    span,
                })
            }
            TokenKind::Keyword(kw @ (Keyword::Case | Keyword::Casez | Keyword::Casex)) => {
                self.bump();
                let kind = match kw {
                    Keyword::Case => CaseKind::Case,
                    Keyword::Casez => CaseKind::Casez,
                    _ => CaseKind::Casex,
                };
                self.expect(&TokenKind::LParen)?;
                let scrutinee = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let mut arms = Vec::new();
                let mut default = None;
                while !self.at_kw(Keyword::Endcase) {
                    if self.at(&TokenKind::Eof) {
                        return Err(self.unexpected("expected `endcase`"));
                    }
                    if self.eat_kw(Keyword::Default) {
                        self.eat(&TokenKind::Colon);
                        default = Some(Box::new(self.stmt()?));
                        continue;
                    }
                    let astart = self.span();
                    let mut labels = vec![self.expr()?];
                    while self.eat(&TokenKind::Comma) {
                        labels.push(self.expr()?);
                    }
                    self.expect(&TokenKind::Colon)?;
                    let body = self.stmt()?;
                    let aspan = astart.merge(body.span());
                    arms.push(CaseArm {
                        labels: trimmed(labels),
                        body,
                        span: aspan,
                    });
                }
                let end = self.expect_kw(Keyword::Endcase)?;
                Ok(Stmt::Case {
                    kind,
                    scrutinee,
                    arms: trimmed(arms),
                    default,
                    span: start.merge(end),
                })
            }
            TokenKind::Semi => {
                let span = self.bump().span;
                Ok(Stmt::Empty { span })
            }
            TokenKind::Ident(_) | TokenKind::LBrace => {
                let lhs = self.lvalue()?;
                let nonblocking = if self.eat(&TokenKind::LtEq) {
                    true
                } else if self.eat(&TokenKind::Assign) {
                    false
                } else {
                    return Err(self.unexpected("expected `=` or `<=`"));
                };
                // Optional intra-assignment delay `#1` is skipped.
                if self.eat(&TokenKind::Hash) {
                    if let TokenKind::Number { .. } = self.peek() {
                        self.bump();
                    }
                }
                let rhs = self.expr()?;
                let end = self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Assign {
                    lhs,
                    rhs,
                    nonblocking,
                    span: start.merge(end),
                })
            }
            _ => Err(self.unexpected("expected statement")),
        }
    }

    fn lvalue(&mut self) -> Result<LValue> {
        let start = self.span();
        if self.eat(&TokenKind::LBrace) {
            let mut parts = vec![self.lvalue()?];
            while self.eat(&TokenKind::Comma) {
                parts.push(self.lvalue()?);
            }
            let end = self.expect(&TokenKind::RBrace)?;
            return Ok(LValue::Concat {
                parts: trimmed(parts),
                span: start.merge(end),
            });
        }
        let (name, nspan) = self.expect_ident()?;
        if self.at(&TokenKind::LBracket) {
            // Distinguish bit select from part select by lookahead for `:`.
            self.bump();
            let first = self.expr()?;
            if self.eat(&TokenKind::Colon) {
                let msb = match first {
                    Expr::Number { value, .. } => u32::try_from(value)
                        .map_err(|_| CompileError::single("part-select msb out of range", nspan))?,
                    _ => {
                        return Err(CompileError::single(
                            "part selects must use constant bounds",
                            first.span(),
                        ))
                    }
                };
                let lsb = self.const_u32()?;
                let end = self.expect(&TokenKind::RBracket)?;
                return Ok(LValue::Part {
                    name,
                    range: BitRange { msb, lsb },
                    span: start.merge(end),
                });
            }
            let end = self.expect(&TokenKind::RBracket)?;
            return Ok(LValue::Bit {
                name,
                index: Box::new(first),
                span: start.merge(end),
            });
        }
        Ok(LValue::Ident { name, span: nspan })
    }

    // -- expressions ------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<Expr> {
        let cond = self.binary(0)?;
        if self.eat(&TokenKind::Question) {
            let then_expr = self.expr()?;
            self.expect(&TokenKind::Colon)?;
            let else_expr = self.expr()?;
            let span = cond.span().merge(else_expr.span());
            return Ok(Expr::Ternary {
                cond: Box::new(cond),
                then_expr: Box::new(then_expr),
                else_expr: Box::new(else_expr),
                span,
            });
        }
        Ok(cond)
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr> {
        let mut lhs = self.unary()?;
        while let Some(op) = self.peek_binary_op() {
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn peek_binary_op(&self) -> Option<BinaryOp> {
        use TokenKind as T;
        Some(match self.peek() {
            T::Plus => BinaryOp::Add,
            T::Minus => BinaryOp::Sub,
            T::Star => BinaryOp::Mul,
            T::Slash => BinaryOp::Div,
            T::Percent => BinaryOp::Mod,
            T::StarStar => BinaryOp::Pow,
            T::Amp => BinaryOp::BitAnd,
            T::Pipe => BinaryOp::BitOr,
            T::Caret => BinaryOp::BitXor,
            T::TildeCaret => BinaryOp::BitXnor,
            T::AmpAmp => BinaryOp::LogicAnd,
            T::PipePipe => BinaryOp::LogicOr,
            T::EqEq => BinaryOp::Eq,
            T::BangEq => BinaryOp::Ne,
            T::EqEqEq => BinaryOp::CaseEq,
            T::BangEqEq => BinaryOp::CaseNe,
            T::Lt => BinaryOp::Lt,
            T::LtEq => BinaryOp::Le,
            T::Gt => BinaryOp::Gt,
            T::GtEq => BinaryOp::Ge,
            T::Shl => BinaryOp::Shl,
            T::Shr => BinaryOp::Shr,
            T::AShl => BinaryOp::AShl,
            T::AShr => BinaryOp::AShr,
            _ => return None,
        })
    }

    fn unary(&mut self) -> Result<Expr> {
        use TokenKind as T;
        let start = self.span();
        let op = match self.peek() {
            T::Minus => Some(UnaryOp::Neg),
            T::Bang => Some(UnaryOp::LogicNot),
            T::Tilde => Some(UnaryOp::BitNot),
            T::Amp => Some(UnaryOp::RedAnd),
            T::Pipe => Some(UnaryOp::RedOr),
            T::Caret => Some(UnaryOp::RedXor),
            T::TildeAmp => Some(UnaryOp::RedNand),
            T::TildePipe => Some(UnaryOp::RedNor),
            T::TildeCaret => Some(UnaryOp::RedXnor),
            T::Plus => Some(UnaryOp::Plus),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.unary()?;
            let span = start.merge(operand.span());
            return Ok(Expr::Unary {
                op,
                operand: Box::new(operand),
                span,
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        use TokenKind as T;
        let start = self.span();
        match *self.peek() {
            T::Number { value, width, base } => {
                let span = self.bump().span;
                Ok(Expr::Number {
                    value,
                    width,
                    base,
                    span,
                })
            }
            T::Str(_) => Err(CompileError::single(
                "string literals are only allowed in $error actions",
                start,
            )),
            T::Ident(_) => {
                let (name, nspan) = self.take_text();
                if self.at(&T::LBracket) {
                    self.bump();
                    let first = self.expr()?;
                    if self.eat(&T::Colon) {
                        let msb = match first {
                            Expr::Number { value, .. } => u32::try_from(value).map_err(|_| {
                                CompileError::single("part-select out of range", nspan)
                            })?,
                            _ => {
                                return Err(CompileError::single(
                                    "part selects must use constant bounds",
                                    first.span(),
                                ))
                            }
                        };
                        let lsb = self.const_u32()?;
                        let end = self.expect(&T::RBracket)?;
                        return Ok(Expr::Part {
                            name,
                            range: BitRange { msb, lsb },
                            span: start.merge(end),
                        });
                    }
                    let end = self.expect(&T::RBracket)?;
                    return Ok(Expr::Bit {
                        name,
                        index: Box::new(first),
                        span: start.merge(end),
                    });
                }
                Ok(Expr::Ident { name, span: nspan })
            }
            T::SysIdent(_) => {
                let (name, _) = self.take_text();
                let mut args = Vec::new();
                if self.eat(&T::LParen) {
                    if !self.at(&T::RParen) {
                        args.push(self.expr()?);
                        while self.eat(&T::Comma) {
                            args.push(self.expr()?);
                        }
                    }
                    self.expect(&T::RParen)?;
                }
                Ok(Expr::SysCall {
                    name,
                    args: trimmed(args),
                    span: start.merge(self.prev_span()),
                })
            }
            T::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&T::RParen)?;
                Ok(e)
            }
            T::LBrace => {
                self.bump();
                let first = self.expr()?;
                // `{n{expr}}` replication.
                if self.at(&T::LBrace) {
                    self.bump();
                    let value = self.expr()?;
                    self.expect(&T::RBrace)?;
                    let end = self.expect(&T::RBrace)?;
                    return Ok(Expr::Repeat {
                        count: Box::new(first),
                        value: Box::new(value),
                        span: start.merge(end),
                    });
                }
                let mut parts = vec![first];
                while self.eat(&T::Comma) {
                    parts.push(self.expr()?);
                }
                let end = self.expect(&T::RBrace)?;
                Ok(Expr::Concat {
                    parts: trimmed(parts),
                    span: start.merge(end),
                })
            }
            _ => Err(self.unexpected("expected expression")),
        }
    }

    // -- SVA ---------------------------------------------------------------

    fn property_decl(&mut self) -> Result<PropertyDecl> {
        let start = self.expect_kw(Keyword::Property)?;
        let (name, _) = self.expect_ident()?;
        self.eat(&TokenKind::Semi);
        let clock = self.clock_spec()?;
        let mut disable = None;
        if self.eat_kw(Keyword::Disable) {
            self.expect_kw(Keyword::Iff)?;
            self.expect(&TokenKind::LParen)?;
            disable = Some(self.expr()?);
            self.expect(&TokenKind::RParen)?;
        }
        let body = self.prop_expr()?;
        self.eat(&TokenKind::Semi);
        let end = self.expect_kw(Keyword::Endproperty)?;
        Ok(PropertyDecl {
            name,
            clock,
            disable,
            body,
            span: start.merge(end),
        })
    }

    fn clock_spec(&mut self) -> Result<ClockSpec> {
        self.expect(&TokenKind::At)?;
        self.expect(&TokenKind::LParen)?;
        let posedge = if self.eat_kw(Keyword::Posedge) {
            true
        } else if self.eat_kw(Keyword::Negedge) {
            false
        } else {
            return Err(self.unexpected("expected `posedge` or `negedge`"));
        };
        let (signal, _) = self.expect_ident()?;
        self.expect(&TokenKind::RParen)?;
        Ok(ClockSpec { posedge, signal })
    }

    fn prop_expr(&mut self) -> Result<PropExpr> {
        let antecedent = self.seq_expr()?;
        let overlapping = if self.at(&TokenKind::ImplOverlap) {
            self.bump();
            true
        } else if self.at(&TokenKind::ImplNonOverlap) {
            self.bump();
            false
        } else {
            return Ok(PropExpr::Seq(antecedent));
        };
        let consequent = self.seq_expr()?;
        let span = antecedent.span().merge(consequent.span());
        Ok(PropExpr::Implication {
            antecedent,
            overlapping,
            consequent,
            span,
        })
    }

    fn seq_expr(&mut self) -> Result<SeqExpr> {
        // Leading delay `##n expr` is sugar for `1 ##n expr` anchored at the
        // evaluation tick.
        let start = self.span();
        let mut seq = if self.at(&TokenKind::HashHash) {
            self.bump();
            let cycles = self.const_u32()?;
            let rhs = SeqExpr::Expr(self.expr()?);
            let span = start.merge(rhs.span());
            SeqExpr::Delay {
                lhs: Box::new(SeqExpr::Expr(Expr::Number {
                    value: 1,
                    width: Some(1),
                    base: Some('b'),
                    span: Span::point(start.start),
                })),
                cycles,
                rhs: Box::new(rhs),
                span,
            }
        } else {
            SeqExpr::Expr(self.expr()?)
        };
        while self.at(&TokenKind::HashHash) {
            self.bump();
            let cycles = self.const_u32()?;
            let rhs = SeqExpr::Expr(self.expr()?);
            let span = seq.span().merge(rhs.span());
            seq = SeqExpr::Delay {
                lhs: Box::new(seq),
                cycles,
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(seq)
    }

    fn assert_directive(&mut self, label: Option<String>, start: Span) -> Result<AssertDirective> {
        self.expect_kw(Keyword::Assert)?;
        self.expect_kw(Keyword::Property)?;
        self.expect(&TokenKind::LParen)?;
        let target = if let TokenKind::Ident(_) = self.peek() {
            // Either a reference to a named property or an inline
            // expression starting with an identifier. A bare identifier
            // followed by `)` is a reference.
            if *self.peek_at(1) == TokenKind::RParen {
                AssertTarget::Named(self.take_text().0)
            } else {
                let p = self.inline_property(&label)?;
                AssertTarget::Inline(Box::new(p))
            }
        } else {
            // Anything else (`@(posedge ...)` clocking or a bare
            // expression) parses as an inline property.
            let p = self.inline_property(&label)?;
            AssertTarget::Inline(Box::new(p))
        };
        self.expect(&TokenKind::RParen)?;
        let mut message = None;
        if self.eat_kw(Keyword::Else) {
            // `$error("...")` or `$fatal`/`$display` treated alike.
            match self.peek() {
                TokenKind::SysIdent(_) => {
                    self.bump();
                    if self.eat(&TokenKind::LParen) {
                        if let TokenKind::Str(_) = self.peek() {
                            message = Some(self.take_text().0);
                        }
                        // Skip any trailing args.
                        while !self.at(&TokenKind::RParen) {
                            if self.at(&TokenKind::Eof) {
                                return Err(self.unexpected("expected `)`"));
                            }
                            self.bump();
                        }
                        self.expect(&TokenKind::RParen)?;
                    }
                }
                _ => return Err(self.unexpected("expected system task after `else`")),
            }
        }
        let end = self.expect(&TokenKind::Semi)?;
        Ok(AssertDirective {
            label,
            target,
            message,
            span: start.merge(end),
        })
    }

    fn inline_property(&mut self, label: &Option<String>) -> Result<PropertyDecl> {
        let start = self.span();
        let clock = if self.at(&TokenKind::At) {
            self.clock_spec()?
        } else {
            // Unclocked inline assertions default to posedge clk; the
            // elaborator validates that `clk` exists.
            ClockSpec {
                posedge: true,
                signal: "clk".to_string(),
            }
        };
        let mut disable = None;
        if self.eat_kw(Keyword::Disable) {
            self.expect_kw(Keyword::Iff)?;
            self.expect(&TokenKind::LParen)?;
            disable = Some(self.expr()?);
            self.expect(&TokenKind::RParen)?;
        }
        let body = self.prop_expr()?;
        Ok(PropertyDecl {
            name: label.clone().unwrap_or_default(),
            clock,
            disable,
            body,
            span: start.merge(self.prev_span()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACCU: &str = r#"
module accu(
  input clk,
  input rst_n,
  input [7:0] in,
  input valid_in,
  output reg [9:0] out,
  output reg valid_out
);
  wire end_cnt;
  reg [1:0] cnt;
  assign end_cnt = (cnt == 2'd3) && valid_in;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) cnt <= 2'd0;
    else if (valid_in) cnt <= end_cnt ? 2'd0 : cnt + 2'd1;
  end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) valid_out <= 0;
    else if (end_cnt) valid_out <= 1;
    else valid_out <= 0;
  end
  property valid_out_check;
    @(posedge clk) disable iff (!rst_n)
    end_cnt |-> ##1 valid_out == 1;
  endproperty
  valid_out_check_assertion: assert property (valid_out_check)
    else $error("valid_out should be high when end_cnt high");
endmodule
"#;

    #[test]
    fn parses_paper_example() {
        let unit = parse(ACCU).expect("parse ok");
        let m = &unit.modules[0];
        assert_eq!(m.name, "accu");
        assert_eq!(m.ports.len(), 6);
        assert_eq!(m.ports[2].width(), 8);
        assert_eq!(m.properties().count(), 1);
        assert_eq!(m.assertions().count(), 1);
        let a = m.assertions().next().expect("one assertion");
        assert_eq!(a.log_name(), "valid_out_check_assertion");
        assert!(a.message.as_deref().unwrap_or("").contains("valid_out"));
    }

    #[test]
    fn property_structure() {
        let unit = parse(ACCU).expect("parse ok");
        let p = unit.modules[0].properties().next().expect("property");
        assert_eq!(p.name, "valid_out_check");
        assert!(p.clock.posedge);
        assert_eq!(p.clock.signal, "clk");
        assert!(p.disable.is_some());
        match &p.body {
            PropExpr::Implication {
                overlapping,
                consequent,
                ..
            } => {
                assert!(*overlapping);
                assert_eq!(consequent.duration(), 1);
            }
            other => panic!("expected implication, got {other:?}"),
        }
    }

    #[test]
    fn precedence_shapes_tree() {
        let unit =
            parse("module m(input a, input b, input c, output y); assign y = a | b & c; endmodule")
                .expect("parse ok");
        let Item::Assign(ca) = &unit.modules[0].items[0] else {
            panic!("expected assign");
        };
        // `&` binds tighter than `|`: y = a | (b & c)
        match &ca.rhs {
            Expr::Binary { op, rhs, .. } => {
                assert_eq!(*op, BinaryOp::BitOr);
                assert!(matches!(
                    **rhs,
                    Expr::Binary {
                        op: BinaryOp::BitAnd,
                        ..
                    }
                ));
            }
            other => panic!("expected binary, got {other:?}"),
        }
    }

    #[test]
    fn nonblocking_vs_comparison() {
        let unit = parse(
            "module m(input clk, input [3:0] a, output reg y);\n\
             always @(posedge clk) y <= a <= 4'd5;\nendmodule",
        )
        .expect("parse ok");
        let Item::Always(al) = &unit.modules[0].items[0] else {
            panic!("expected always");
        };
        let Stmt::Assign {
            nonblocking, rhs, ..
        } = &al.body
        else {
            panic!("expected assign, got {:?}", al.body);
        };
        assert!(*nonblocking);
        assert!(matches!(
            rhs,
            Expr::Binary {
                op: BinaryOp::Le,
                ..
            }
        ));
    }

    #[test]
    fn case_statement() {
        let src = "module m(input [1:0] s, output reg [3:0] y);\n\
            always @* begin\n\
              case (s)\n\
                2'd0: y = 4'd1;\n\
                2'd1, 2'd2: y = 4'd2;\n\
                default: y = 4'd0;\n\
              endcase\n\
            end\nendmodule";
        let unit = parse(src).expect("parse ok");
        let Item::Always(al) = &unit.modules[0].items[0] else {
            panic!("expected always");
        };
        let Stmt::Block { stmts, .. } = &al.body else {
            panic!("expected block");
        };
        let Stmt::Case { arms, default, .. } = &stmts[0] else {
            panic!("expected case");
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[1].labels.len(), 2);
        assert!(default.is_some());
    }

    #[test]
    fn rejects_missing_endmodule() {
        assert!(parse("module m(input a);").is_err());
    }

    #[test]
    fn rejects_bad_statement() {
        assert!(parse("module m; always @(posedge c) 42; endmodule").is_err());
    }

    #[test]
    fn parses_concat_and_repeat() {
        let unit =
            parse("module m(input [3:0] a, output [7:0] y); assign y = {2{a}} ^ {a, a}; endmodule")
                .expect("parse ok");
        let Item::Assign(ca) = &unit.modules[0].items[0] else {
            panic!("expected assign");
        };
        assert!(matches!(ca.rhs, Expr::Binary { .. }));
    }

    #[test]
    fn parses_parameters() {
        let unit = parse(
            "module m #(parameter W = 4)(input [3:0] a, output [3:0] y);\n\
             localparam TOP = 15;\n assign y = a + TOP; endmodule",
        )
        .expect("parse ok");
        let params: Vec<_> = unit.modules[0]
            .items
            .iter()
            .filter(|i| matches!(i, Item::Param(_)))
            .collect();
        assert_eq!(params.len(), 2);
    }

    #[test]
    fn parses_leading_delay_sequence() {
        let src = "module m(input clk, input a, input b);\n\
            property p; @(posedge clk) a |-> ##2 b; endproperty\n\
            assert property (p);\nendmodule";
        let unit = parse(src).expect("parse ok");
        let p = unit.modules[0].properties().next().expect("property");
        let PropExpr::Implication { consequent, .. } = &p.body else {
            panic!("expected implication");
        };
        assert_eq!(consequent.duration(), 2);
    }

    #[test]
    fn parses_syscalls_in_properties() {
        let src = "module m(input clk, input [3:0] d, output reg [3:0] q);\n\
            always @(posedge clk) q <= d;\n\
            property p; @(posedge clk) q == $past(d, 1); endproperty\n\
            chk: assert property (p) else $error(\"stale q\");\nendmodule";
        let unit = parse(src).expect("parse ok");
        let p = unit.modules[0].properties().next().expect("property");
        let PropExpr::Seq(SeqExpr::Expr(e)) = &p.body else {
            panic!("expected seq");
        };
        assert!(e.idents().contains(&"d".to_string()));
    }

    #[test]
    fn non_ansi_ports() {
        let src = "module m(a, y);\ninput [3:0] a;\noutput [3:0] y;\nassign y = a; endmodule";
        let unit = parse(src).expect("parse ok");
        let m = &unit.modules[0];
        assert_eq!(m.ports.len(), 2);
        assert_eq!(m.ports[0].width(), 4);
        assert_eq!(m.ports[1].dir, PortDir::Output);
    }

    #[test]
    fn wire_with_init_splits_into_assign() {
        let unit =
            parse("module m(input a, output y); wire t = ~a; assign y = t; endmodule").expect("ok");
        let kinds: Vec<_> = unit.modules[0]
            .items
            .iter()
            .map(std::mem::discriminant)
            .collect();
        assert_eq!(kinds.len(), 3); // net decl + implied assign + assign
    }
}
