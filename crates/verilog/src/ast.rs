//! Abstract syntax tree for the supported Verilog-2005 + SVA subset.
//!
//! Every node carries a [`Span`] so that downstream tooling (the mutation
//! engine, the fault localiser, the pretty-printer) can map nodes back to
//! source lines. The SVA property/assertion grammar lives here too, so the
//! whole design is one self-contained tree; assertion *semantics* are
//! provided by the `asv-sva` crate.
//!
//! Every node derives `Hash`, and a [`Span`] hashes to nothing, so the
//! hash of a tree covers its structure and never where it was written.
//! That hash keys verification jobs (`asv_sim::cache::design_hash`).

use crate::source::Span;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A complete source file: one or more modules.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct SourceUnit {
    /// Modules in declaration order.
    pub modules: Vec<Module>,
}

impl SourceUnit {
    /// Finds a module by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }
}

/// A `module ... endmodule` declaration.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct Module {
    /// Module identifier.
    pub name: String,
    /// Ports in header order.
    pub ports: Vec<Port>,
    /// Body items in declaration order.
    pub items: Vec<Item>,
    /// Span of the whole module.
    pub span: Span,
}

impl Module {
    /// Iterates over all property declarations in the module body.
    pub fn properties(&self) -> impl Iterator<Item = &PropertyDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Property(p) => Some(p),
            _ => None,
        })
    }

    /// Iterates over all assertion directives in the module body.
    pub fn assertions(&self) -> impl Iterator<Item = &AssertDirective> {
        self.items.iter().filter_map(|i| match i {
            Item::Assert(a) => Some(a),
            _ => None,
        })
    }

    /// Looks up a net/port declaration width by signal name, if declared.
    pub fn width_of(&self, name: &str) -> Option<u32> {
        for p in &self.ports {
            if p.name == name {
                return Some(p.width());
            }
        }
        for item in &self.items {
            if let Item::Net(n) = item {
                if n.names.iter().any(|n2| n2 == name) {
                    return Some(n.width());
                }
            }
        }
        None
    }
}

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortDir {
    /// `input`
    Input,
    /// `output`
    Output,
}

impl fmt::Display for PortDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PortDir::Input => "input",
            PortDir::Output => "output",
        })
    }
}

/// Net flavour of a declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetKind {
    /// `wire` — driven by continuous assignment.
    Wire,
    /// `reg` — driven procedurally.
    Reg,
    /// `logic` — SystemVerilog; either driver style.
    Logic,
    /// `integer` — treated as a 32-bit signed reg.
    Integer,
}

impl fmt::Display for NetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NetKind::Wire => "wire",
            NetKind::Reg => "reg",
            NetKind::Logic => "logic",
            NetKind::Integer => "integer",
        })
    }
}

/// A constant bit range `[msb:lsb]` (msb ≥ lsb in this subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitRange {
    /// Most significant bit index.
    pub msb: u32,
    /// Least significant bit index.
    pub lsb: u32,
}

impl BitRange {
    /// Width in bits. Wraps instead of overflowing: `[4294967295:0]` is
    /// width 0, which elaboration rejects like any width outside 1..=64.
    pub fn width(&self) -> u32 {
        self.msb.wrapping_sub(self.lsb).wrapping_add(1)
    }
}

impl fmt::Display for BitRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}:{}]", self.msb, self.lsb)
    }
}

/// A module port.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct Port {
    /// Direction.
    pub dir: PortDir,
    /// Net kind (`wire` by default; `reg` allowed on outputs).
    pub kind: NetKind,
    /// Optional vector range.
    pub range: Option<BitRange>,
    /// Port name.
    pub name: String,
    /// Source span of the declaration.
    pub span: Span,
}

impl Port {
    /// Bit width of the port (1 for scalars).
    pub fn width(&self) -> u32 {
        self.range.map(|r| r.width()).unwrap_or(1)
    }
}

/// A net/variable declaration: `wire [3:0] a, b;`.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct NetDecl {
    /// Net kind.
    pub kind: NetKind,
    /// Optional vector range.
    pub range: Option<BitRange>,
    /// Declared names.
    pub names: Vec<String>,
    /// Source span.
    pub span: Span,
}

impl NetDecl {
    /// Bit width of the declared nets.
    pub fn width(&self) -> u32 {
        match self.kind {
            NetKind::Integer => 32,
            _ => self.range.map(|r| r.width()).unwrap_or(1),
        }
    }
}

/// A `parameter`/`localparam` declaration.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct ParamDecl {
    /// `localparam` if true.
    pub local: bool,
    /// Parameter name.
    pub name: String,
    /// Constant value expression.
    pub value: Expr,
    /// Source span.
    pub span: Span,
}

/// A module body item.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub enum Item {
    /// Net/variable declaration.
    Net(NetDecl),
    /// Parameter declaration.
    Param(ParamDecl),
    /// Continuous assignment `assign lhs = rhs;`.
    Assign(ContAssign),
    /// Procedural block.
    Always(AlwaysBlock),
    /// `initial` block (simulation-only).
    Initial(InitialBlock),
    /// `property ... endproperty`.
    Property(PropertyDecl),
    /// `label: assert property (...) else $error(...);`.
    Assert(AssertDirective),
}

impl Item {
    /// The source span of the item.
    pub fn span(&self) -> Span {
        match self {
            Item::Net(n) => n.span,
            Item::Param(p) => p.span,
            Item::Assign(a) => a.span,
            Item::Always(a) => a.span,
            Item::Initial(i) => i.span,
            Item::Property(p) => p.span,
            Item::Assert(a) => a.span,
        }
    }
}

/// Continuous assignment.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct ContAssign {
    /// Assignment target.
    pub lhs: LValue,
    /// Driven expression.
    pub rhs: Expr,
    /// Source span.
    pub span: Span,
}

/// Kind of procedural block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlwaysKind {
    /// Plain `always`.
    Always,
    /// `always_ff`.
    Ff,
    /// `always_comb` (no sensitivity list).
    Comb,
}

/// One edge event in a sensitivity list.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub enum SensItem {
    /// `posedge sig`
    Posedge(String),
    /// `negedge sig`
    Negedge(String),
    /// level-sensitive `sig`
    Level(String),
}

impl SensItem {
    /// The signal the event refers to.
    pub fn signal(&self) -> &str {
        match self {
            SensItem::Posedge(s) | SensItem::Negedge(s) | SensItem::Level(s) => s,
        }
    }
}

/// Sensitivity of an always block.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub enum Sensitivity {
    /// `@*` / `@(*)` / `always_comb` — combinational.
    Star,
    /// Explicit event list `@(posedge clk or negedge rst_n)`.
    List(Vec<SensItem>),
}

impl Sensitivity {
    /// True if the block is combinational (star or all level-sensitive).
    pub fn is_combinational(&self) -> bool {
        match self {
            Sensitivity::Star => true,
            Sensitivity::List(items) => items.iter().all(|i| matches!(i, SensItem::Level(_))),
        }
    }
}

/// An `always` block.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct AlwaysBlock {
    /// Which `always` keyword introduced the block.
    pub kind: AlwaysKind,
    /// Sensitivity list.
    pub sensitivity: Sensitivity,
    /// Block body.
    pub body: Stmt,
    /// Source span.
    pub span: Span,
}

/// An `initial` block.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct InitialBlock {
    /// Block body.
    pub body: Stmt,
    /// Source span.
    pub span: Span,
}

/// Assignment target: a whole signal, a bit, or a constant part-select.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub enum LValue {
    /// Whole signal.
    Ident { name: String, span: Span },
    /// Single-bit select `sig[expr]`.
    Bit {
        name: String,
        index: Box<Expr>,
        span: Span,
    },
    /// Constant part select `sig[msb:lsb]`.
    Part {
        name: String,
        range: BitRange,
        span: Span,
    },
    /// Concatenation target `{a, b}`.
    Concat { parts: Vec<LValue>, span: Span },
}

impl LValue {
    /// The span of the target.
    pub fn span(&self) -> Span {
        match self {
            LValue::Ident { span, .. }
            | LValue::Bit { span, .. }
            | LValue::Part { span, .. }
            | LValue::Concat { span, .. } => *span,
        }
    }

    /// Names of all signals written by this target.
    pub fn target_names(&self) -> Vec<&str> {
        match self {
            LValue::Ident { name, .. } | LValue::Bit { name, .. } | LValue::Part { name, .. } => {
                vec![name.as_str()]
            }
            LValue::Concat { parts, .. } => parts.iter().flat_map(|p| p.target_names()).collect(),
        }
    }
}

/// A procedural statement.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub enum Stmt {
    /// `begin ... end`.
    Block { stmts: Vec<Stmt>, span: Span },
    /// `if (cond) then else else_`.
    If {
        cond: Expr,
        then_branch: Box<Stmt>,
        else_branch: Option<Box<Stmt>>,
        span: Span,
    },
    /// `case (expr) ... endcase` (also casez/casex).
    Case {
        kind: CaseKind,
        scrutinee: Expr,
        arms: Vec<CaseArm>,
        default: Option<Box<Stmt>>,
        span: Span,
    },
    /// Blocking (`=`) or nonblocking (`<=`) assignment.
    Assign {
        lhs: LValue,
        rhs: Expr,
        nonblocking: bool,
        span: Span,
    },
    /// Empty statement `;`.
    Empty { span: Span },
}

impl Stmt {
    /// The source span of the statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Block { span, .. }
            | Stmt::If { span, .. }
            | Stmt::Case { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::Empty { span } => *span,
        }
    }
}

/// Which case statement flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CaseKind {
    /// `case`
    Case,
    /// `casez`
    Casez,
    /// `casex`
    Casex,
}

/// One `labels: stmt` arm of a case statement.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct CaseArm {
    /// Comma-separated match labels.
    pub labels: Vec<Expr>,
    /// Arm body.
    pub body: Stmt,
    /// Source span.
    pub span: Span,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnaryOp {
    /// `-`
    Neg,
    /// `!`
    LogicNot,
    /// `~`
    BitNot,
    /// `&` reduction
    RedAnd,
    /// `|` reduction
    RedOr,
    /// `^` reduction
    RedXor,
    /// `~&` reduction
    RedNand,
    /// `~|` reduction
    RedNor,
    /// `~^` reduction
    RedXnor,
    /// unary `+` (no-op)
    Plus,
}

impl UnaryOp {
    /// Source spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            UnaryOp::Neg => "-",
            UnaryOp::LogicNot => "!",
            UnaryOp::BitNot => "~",
            UnaryOp::RedAnd => "&",
            UnaryOp::RedOr => "|",
            UnaryOp::RedXor => "^",
            UnaryOp::RedNand => "~&",
            UnaryOp::RedNor => "~|",
            UnaryOp::RedXnor => "~^",
            UnaryOp::Plus => "+",
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Pow,
    BitAnd,
    BitOr,
    BitXor,
    BitXnor,
    LogicAnd,
    LogicOr,
    Eq,
    Ne,
    CaseEq,
    CaseNe,
    Lt,
    Le,
    Gt,
    Ge,
    Shl,
    Shr,
    AShl,
    AShr,
}

impl BinaryOp {
    /// Source spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Pow => "**",
            BinaryOp::BitAnd => "&",
            BinaryOp::BitOr => "|",
            BinaryOp::BitXor => "^",
            BinaryOp::BitXnor => "~^",
            BinaryOp::LogicAnd => "&&",
            BinaryOp::LogicOr => "||",
            BinaryOp::Eq => "==",
            BinaryOp::Ne => "!=",
            BinaryOp::CaseEq => "===",
            BinaryOp::CaseNe => "!==",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::Shl => "<<",
            BinaryOp::Shr => ">>",
            BinaryOp::AShl => "<<<",
            BinaryOp::AShr => ">>>",
        }
    }

    /// Binding power used by the Pratt parser; higher binds tighter.
    pub fn precedence(self) -> u8 {
        match self {
            BinaryOp::Pow => 12,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => 11,
            BinaryOp::Add | BinaryOp::Sub => 10,
            BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShl | BinaryOp::AShr => 9,
            BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => 8,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::CaseEq | BinaryOp::CaseNe => 7,
            BinaryOp::BitAnd => 6,
            BinaryOp::BitXor | BinaryOp::BitXnor => 5,
            BinaryOp::BitOr => 4,
            BinaryOp::LogicAnd => 3,
            BinaryOp::LogicOr => 2,
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// Integer literal.
    Number {
        value: u64,
        width: Option<u32>,
        base: Option<char>,
        span: Span,
    },
    /// Signal or parameter reference.
    Ident { name: String, span: Span },
    /// Unary operation.
    Unary {
        op: UnaryOp,
        operand: Box<Expr>,
        span: Span,
    },
    /// Binary operation.
    Binary {
        op: BinaryOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        span: Span,
    },
    /// Conditional `c ? t : e`.
    Ternary {
        cond: Box<Expr>,
        then_expr: Box<Expr>,
        else_expr: Box<Expr>,
        span: Span,
    },
    /// Concatenation `{a, b, c}`.
    Concat { parts: Vec<Expr>, span: Span },
    /// Replication `{n{expr}}`.
    Repeat {
        count: Box<Expr>,
        value: Box<Expr>,
        span: Span,
    },
    /// Single-bit select `sig[i]`.
    Bit {
        name: String,
        index: Box<Expr>,
        span: Span,
    },
    /// Constant part select `sig[m:l]`.
    Part {
        name: String,
        range: BitRange,
        span: Span,
    },
    /// SVA/system function call `$past(e, n)` etc.
    SysCall {
        name: String,
        args: Vec<Expr>,
        span: Span,
    },
}

impl Expr {
    /// The source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Number { span, .. }
            | Expr::Ident { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Ternary { span, .. }
            | Expr::Concat { span, .. }
            | Expr::Repeat { span, .. }
            | Expr::Bit { span, .. }
            | Expr::Part { span, .. }
            | Expr::SysCall { span, .. } => *span,
        }
    }

    /// Calls `f` with the name of every identifier the expression
    /// references, in source order, repeats included.
    pub(crate) fn for_each_ident<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            Expr::Number { .. } => {}
            Expr::Ident { name, .. } | Expr::Part { name, .. } => f(name),
            Expr::Unary { operand, .. } => operand.for_each_ident(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.for_each_ident(f);
                rhs.for_each_ident(f);
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                cond.for_each_ident(f);
                then_expr.for_each_ident(f);
                else_expr.for_each_ident(f);
            }
            Expr::Concat { parts, .. } => {
                for p in parts {
                    p.for_each_ident(f);
                }
            }
            Expr::Repeat { count, value, .. } => {
                count.for_each_ident(f);
                value.for_each_ident(f);
            }
            Expr::Bit { name, index, .. } => {
                f(name);
                index.for_each_ident(f);
            }
            Expr::SysCall { args, .. } => {
                for a in args {
                    a.for_each_ident(f);
                }
            }
        }
    }

    /// Collects the names of all identifiers referenced by the expression.
    pub fn collect_idents(&self, out: &mut Vec<String>) {
        self.for_each_ident(&mut |name| out.push(name.to_string()));
    }

    /// Convenience wrapper returning a fresh vector of referenced names.
    pub fn idents(&self) -> Vec<String> {
        let mut v = Vec::new();
        self.collect_idents(&mut v);
        v
    }
}

// ---------------------------------------------------------------------------
// SVA nodes
// ---------------------------------------------------------------------------

/// Clocking event of a property: `@(posedge clk)`.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct ClockSpec {
    /// True for `posedge`, false for `negedge`.
    pub posedge: bool,
    /// Clock signal name.
    pub signal: String,
}

/// A sequence expression (the antecedent/consequent of an implication).
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub enum SeqExpr {
    /// A boolean expression sampled at one clock tick.
    Expr(Expr),
    /// `lhs ##n rhs` — rhs begins `n` ticks after lhs completes.
    Delay {
        lhs: Box<SeqExpr>,
        cycles: u32,
        rhs: Box<SeqExpr>,
        span: Span,
    },
}

impl SeqExpr {
    /// The source span of the sequence.
    pub fn span(&self) -> Span {
        match self {
            SeqExpr::Expr(e) => e.span(),
            SeqExpr::Delay { span, .. } => *span,
        }
    }

    /// Number of clock ticks this sequence spans beyond its start tick.
    pub fn duration(&self) -> u32 {
        match self {
            SeqExpr::Expr(_) => 0,
            SeqExpr::Delay {
                lhs, cycles, rhs, ..
            } => lhs.duration() + cycles + rhs.duration(),
        }
    }

    /// All identifiers referenced anywhere in the sequence.
    pub fn idents(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_ident(&mut |name| out.push(name.to_string()));
        out
    }

    /// Calls `f` with every identifier of the sequence, in
    /// [`SeqExpr::idents`] order.
    pub(crate) fn for_each_ident<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            SeqExpr::Expr(e) => e.for_each_ident(f),
            SeqExpr::Delay { lhs, rhs, .. } => {
                lhs.for_each_ident(f);
                rhs.for_each_ident(f);
            }
        }
    }
}

/// A property body.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub enum PropExpr {
    /// A plain sequence that must hold whenever evaluated.
    Seq(SeqExpr),
    /// `antecedent |-> consequent` (overlapping) or `|=>` (non-overlapping).
    Implication {
        antecedent: SeqExpr,
        /// True for `|->`, false for `|=>`.
        overlapping: bool,
        consequent: SeqExpr,
        span: Span,
    },
}

impl PropExpr {
    /// The source span of the property body.
    pub fn span(&self) -> Span {
        match self {
            PropExpr::Seq(s) => s.span(),
            PropExpr::Implication { span, .. } => *span,
        }
    }

    /// Number of clock ticks beyond its start that one attempt of the
    /// property may observe: the sequences' durations, plus the tick that
    /// `|=>` skips. The simulation monitor and the symbolic engine both
    /// size an attempt by it.
    pub fn window(&self) -> u32 {
        match self {
            PropExpr::Seq(s) => s.duration(),
            PropExpr::Implication {
                antecedent,
                overlapping,
                consequent,
                ..
            } => antecedent.duration() + consequent.duration() + u32::from(!*overlapping),
        }
    }

    /// All identifiers referenced by the property body.
    pub fn idents(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_ident(&mut |name| out.push(name.to_string()));
        out
    }

    /// Calls `f` with every identifier of the body, in
    /// [`PropExpr::idents`] order.
    pub(crate) fn for_each_ident<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            PropExpr::Seq(s) => s.for_each_ident(f),
            PropExpr::Implication {
                antecedent,
                consequent,
                ..
            } => {
                antecedent.for_each_ident(f);
                consequent.for_each_ident(f);
            }
        }
    }
}

/// A named `property ... endproperty` declaration.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct PropertyDecl {
    /// Property name.
    pub name: String,
    /// Clocking event.
    pub clock: ClockSpec,
    /// Optional `disable iff (expr)` guard.
    pub disable: Option<Expr>,
    /// Property body.
    pub body: PropExpr,
    /// Source span.
    pub span: Span,
}

/// What an `assert property` directive checks.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub enum AssertTarget {
    /// Reference to a named property declaration.
    Named(String),
    /// An inline property with explicit clocking.
    Inline(Box<PropertyDecl>),
}

/// An assertion directive: `label: assert property (p) else $error("msg");`.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct AssertDirective {
    /// Optional statement label (used in failure logs).
    pub label: Option<String>,
    /// Checked property.
    pub target: AssertTarget,
    /// Optional `$error` message from the else action.
    pub message: Option<String>,
    /// Source span.
    pub span: Span,
}

impl AssertDirective {
    /// The name used in failure logs: the label, the named property, or
    /// `"anonymous"`.
    pub fn log_name(&self) -> &str {
        if let Some(l) = &self.label {
            return l;
        }
        match &self.target {
            AssertTarget::Named(n) => n,
            AssertTarget::Inline(p) => {
                if p.name.is_empty() {
                    "anonymous"
                } else {
                    &p.name
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident(name: &str) -> Expr {
        Expr::Ident {
            name: name.into(),
            span: Span::default(),
        }
    }

    #[test]
    fn bitrange_width() {
        assert_eq!(BitRange { msb: 7, lsb: 0 }.width(), 8);
        assert_eq!(BitRange { msb: 3, lsb: 3 }.width(), 1);
    }

    #[test]
    fn expr_idents_are_collected() {
        let e = Expr::Binary {
            op: BinaryOp::Add,
            lhs: Box::new(ident("a")),
            rhs: Box::new(Expr::Ternary {
                cond: Box::new(ident("sel")),
                then_expr: Box::new(ident("b")),
                else_expr: Box::new(ident("c")),
                span: Span::default(),
            }),
            span: Span::default(),
        };
        assert_eq!(e.idents(), vec!["a", "sel", "b", "c"]);
    }

    #[test]
    fn seq_duration_accumulates_delays() {
        let s = SeqExpr::Delay {
            lhs: Box::new(SeqExpr::Expr(ident("a"))),
            cycles: 2,
            rhs: Box::new(SeqExpr::Delay {
                lhs: Box::new(SeqExpr::Expr(ident("b"))),
                cycles: 3,
                rhs: Box::new(SeqExpr::Expr(ident("c"))),
                span: Span::default(),
            }),
            span: Span::default(),
        };
        assert_eq!(s.duration(), 5);
        assert_eq!(s.idents(), vec!["a", "b", "c"]);
    }

    #[test]
    fn property_window_counts_ticks_beyond_the_start() {
        for (body, window) in [("a", 0), ("a ##2 b", 2), ("a |-> ##1 b", 1), ("a |=> b", 1)] {
            let unit = crate::parser::parse(&format!(
                "module m(input clk, input a, input b);\n\
                 property p; @(posedge clk) {body}; endproperty\n\
                 assert property (p);\nendmodule"
            ))
            .expect("parse");
            let p = unit.modules[0].properties().next().expect("property");
            assert_eq!(p.body.window(), window, "{body}");
        }
    }

    #[test]
    fn precedence_orders_operators() {
        assert!(BinaryOp::Mul.precedence() > BinaryOp::Add.precedence());
        assert!(BinaryOp::Add.precedence() > BinaryOp::Eq.precedence());
        assert!(BinaryOp::BitAnd.precedence() > BinaryOp::BitOr.precedence());
        assert!(BinaryOp::LogicAnd.precedence() > BinaryOp::LogicOr.precedence());
    }

    #[test]
    fn assert_log_name_prefers_label() {
        let d = AssertDirective {
            label: Some("check_out".into()),
            target: AssertTarget::Named("p_out".into()),
            message: None,
            span: Span::default(),
        };
        assert_eq!(d.log_name(), "check_out");
        let d2 = AssertDirective {
            label: None,
            target: AssertTarget::Named("p_out".into()),
            message: None,
            span: Span::default(),
        };
        assert_eq!(d2.log_name(), "p_out");
    }

    #[test]
    fn lvalue_targets() {
        let lv = LValue::Concat {
            parts: vec![
                LValue::Ident {
                    name: "hi".into(),
                    span: Span::default(),
                },
                LValue::Ident {
                    name: "lo".into(),
                    span: Span::default(),
                },
            ],
            span: Span::default(),
        };
        assert_eq!(lv.target_names(), vec!["hi", "lo"]);
    }
}
