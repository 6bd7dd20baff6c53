//! The word-level IR: hash-consed expression DAG plus structured
//! statements, lowered from the elaborated AST.
//!
//! The IR is the *canonical* design form every engine lowers from: the
//! simulator emits bytecode from it, the SAT engine's bit-blaster walks
//! the bytecode the IR emitted, and the fuzzer's coverage sites are
//! assigned here — once.
//!
//! Three properties are fixed at lowering:
//!
//! * **Lazy errors are nodes.** A construct whose evaluation would raise
//!   ([`EvalError`]) lowers to [`IrExpr::Fail`], which raises when (and
//!   only when) it is evaluated.
//! * **Coverage sites are allocated at lowering.** Every `if`/`case` arm
//!   gets its site id here, in source order.
//! * **Symbolic supportability is a node property.** [`Arena::sym_clean`]
//!   conservatively marks cones the AIG bit-blaster is guaranteed to
//!   accept; the symbolic engine may skip only clean steps outside the
//!   assertion cone.

use crate::eval::EvalError;
use crate::value::Value;
use crate::{param_value, SigId};
use asv_verilog::ast::{BinaryOp, Expr, Item, LValue, Stmt, UnaryOp};
use asv_verilog::sema::Design;
use std::collections::HashMap;

/// Index of a node in an [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One word-level expression node. Children are [`NodeId`]s into the same
/// arena; structurally identical nodes are interned to one id.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IrExpr {
    /// A constant (literals and folded parameters).
    Const(Value),
    /// A live signal read.
    Load(SigId),
    /// Unary operator application.
    Unary(UnaryOp, NodeId),
    /// Binary operator application.
    Binary(BinaryOp, NodeId, NodeId),
    /// Lazy conditional `cond ? then : else` — only the taken branch is
    /// evaluated, so errors in the untaken branch never fire.
    Select {
        /// Condition.
        cond: NodeId,
        /// Taken branch.
        then_n: NodeId,
        /// Untaken branch.
        else_n: NodeId,
    },
    /// Concatenation, msb part first. Never empty (an empty source concat
    /// lowers to [`IrExpr::Fail`]).
    Concat(Vec<NodeId>),
    /// Replication `{count{value}}` with the interpreter's runtime guard
    /// on the count.
    Repeat {
        /// Replication count.
        count: NodeId,
        /// Replicated value.
        value: NodeId,
    },
    /// Dynamic single-bit select `base[index]`.
    BitIndex {
        /// Indexed value.
        base: NodeId,
        /// Index expression.
        index: NodeId,
    },
    /// Constant part select `base[msb:lsb]`.
    Slice {
        /// Sliced value.
        base: NodeId,
        /// Most significant bit.
        msb: u32,
        /// Least significant bit.
        lsb: u32,
    },
    /// System function call.
    SysCall {
        /// Function name without the `$`.
        name: String,
        /// Arguments in source order.
        args: Vec<NodeId>,
    },
    /// Raises `EvalError` when (and only when) evaluated — the lazy-error
    /// twin of the bytecode's `Op::Fail`.
    Fail(EvalError),
}

/// Per-node analysis results, computed incrementally on interning.
#[derive(Debug, Clone, Copy)]
struct NodeMeta {
    /// The AIG bit-blaster is statically guaranteed to accept the node's
    /// cone (conservative: `false` means "maybe unsupported").
    sym_clean: bool,
    /// Statically known result width, when derivable.
    width: Option<u32>,
}

/// Append-only, hash-consing node store.
#[derive(Debug, Clone, Default)]
pub struct Arena {
    nodes: Vec<IrExpr>,
    meta: Vec<NodeMeta>,
    interner: HashMap<IrExpr, NodeId>,
    /// Declared signal widths, indexed by [`SigId`] (for width inference).
    sig_widths: Vec<u32>,
}

impl Arena {
    /// An empty arena over signals of the given widths.
    pub fn new(sig_widths: Vec<u32>) -> Self {
        Arena {
            sig_widths,
            ..Arena::default()
        }
    }

    /// Number of interned nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no node has been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The expression stored at `id`.
    pub fn node(&self, id: NodeId) -> &IrExpr {
        &self.nodes[id.idx()]
    }

    /// Interns a node, returning the existing id for structurally
    /// identical nodes (structural hashing).
    pub fn add(&mut self, node: IrExpr) -> NodeId {
        if let Some(&id) = self.interner.get(&node) {
            return id;
        }
        let meta = self.analyse(&node);
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node.clone());
        self.meta.push(meta);
        self.interner.insert(node, id);
        id
    }

    /// Shorthand for interning a constant.
    pub fn konst(&mut self, v: Value) -> NodeId {
        self.add(IrExpr::Const(v))
    }

    /// The constant behind `id`, if it is one.
    pub fn as_const(&self, id: NodeId) -> Option<Value> {
        match self.node(id) {
            IrExpr::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// True when the AIG bit-blaster is statically guaranteed to accept
    /// the cone of `id`.
    pub fn sym_clean(&self, id: NodeId) -> bool {
        self.meta[id.idx()].sym_clean
    }

    /// Statically inferred result width of `id`, when derivable.
    pub fn width(&self, id: NodeId) -> Option<u32> {
        self.meta[id.idx()].width
    }

    fn analyse(&self, node: &IrExpr) -> NodeMeta {
        let m = |id: NodeId| self.meta[id.idx()];
        match node {
            IrExpr::Const(v) => NodeMeta {
                sym_clean: true,
                width: Some(v.width()),
            },
            IrExpr::Load(sig) => NodeMeta {
                sym_clean: true,
                width: self.sig_widths.get(sig.idx()).copied(),
            },
            IrExpr::Fail(_) => NodeMeta {
                sym_clean: false,
                width: None,
            },
            IrExpr::Unary(op, a) => {
                let ma = m(*a);
                let width = match op {
                    UnaryOp::Neg | UnaryOp::BitNot | UnaryOp::Plus => ma.width,
                    _ => Some(1),
                };
                NodeMeta {
                    sym_clean: ma.sym_clean,
                    width,
                }
            }
            IrExpr::Binary(op, a, b) => {
                let (ma, mb) = (m(*a), m(*b));
                use BinaryOp as B;
                let width = match op {
                    B::LogicAnd
                    | B::LogicOr
                    | B::Eq
                    | B::Ne
                    | B::CaseEq
                    | B::CaseNe
                    | B::Lt
                    | B::Le
                    | B::Gt
                    | B::Ge => Some(1),
                    _ => match (ma.width, mb.width) {
                        (Some(x), Some(y)) => Some(x.max(y)),
                        _ => None,
                    },
                };
                // Division/modulo by a constant power of two is lowered
                // to shifts/masks by the bit-blaster, so those cones stay
                // inside the symbolic subset; any other divisor is
                // symbolically unsupported.
                let op_clean = match op {
                    B::Div | B::Mod => self
                        .as_const(*b)
                        .is_some_and(|v| v.bits().is_power_of_two()),
                    // `**` has no gate-level lowering for non-constant
                    // operands.
                    B::Pow => false,
                    _ => true,
                };
                NodeMeta {
                    sym_clean: ma.sym_clean && mb.sym_clean && op_clean,
                    width,
                }
            }
            IrExpr::Select {
                cond,
                then_n,
                else_n,
            } => {
                let (mc, mt, me) = (m(*cond), m(*then_n), m(*else_n));
                let width = match (mt.width, me.width) {
                    (Some(x), Some(y)) if x == y => Some(x),
                    _ => None,
                };
                // A symbolic condition muxes both branches: the blaster
                // requires equal branch widths. The blaster takes one
                // branch under a constant condition, but the conservative
                // flag ignores that.
                NodeMeta {
                    sym_clean: mc.sym_clean && mt.sym_clean && me.sym_clean && width.is_some(),
                    width,
                }
            }
            IrExpr::Concat(parts) => {
                let mut sym_clean = true;
                let mut width = Some(0u32);
                for p in parts {
                    let mp = m(*p);
                    sym_clean &= mp.sym_clean;
                    width = match (width, mp.width) {
                        (Some(acc), Some(w)) => Some((acc + w).min(64)),
                        _ => None,
                    };
                }
                NodeMeta { sym_clean, width }
            }
            IrExpr::Repeat { count, value } => {
                let (mc, mv) = (m(*count), m(*value));
                let n = self.as_const(*count).map(Value::bits);
                let guard_ok = n.is_some_and(|n| (1..=64).contains(&n));
                let width = match (n, mv.width) {
                    (Some(n), Some(w)) if guard_ok => Some((w * n as u32).min(64)),
                    _ => None,
                };
                NodeMeta {
                    sym_clean: mc.sym_clean && mv.sym_clean && guard_ok,
                    width,
                }
            }
            IrExpr::BitIndex { base, index } => {
                let (mb, mi) = (m(*base), m(*index));
                NodeMeta {
                    sym_clean: mb.sym_clean && mi.sym_clean,
                    width: Some(1),
                }
            }
            IrExpr::Slice { base, msb, lsb } => NodeMeta {
                sym_clean: m(*base).sym_clean,
                width: Some((msb - lsb + 1).min(64)),
            },
            IrExpr::SysCall { name, args } => {
                let supported =
                    matches!(name.as_str(), "countones" | "onehot" | "onehot0") && args.len() == 1;
                let kids_clean = args.iter().all(|a| m(*a).sym_clean);
                let width = match (supported, name.as_str()) {
                    (true, "countones") => Some(32),
                    (true, _) => Some(1),
                    _ => None,
                };
                NodeMeta {
                    sym_clean: kids_clean && supported,
                    width,
                }
            }
        }
    }
}

/// A lowered assignment target.
#[derive(Debug, Clone, PartialEq)]
pub enum IrLValue {
    /// Whole signal (write masked to declared width).
    Whole(SigId),
    /// Single bit with a (possibly dynamic) index expression.
    Bit {
        /// Target signal.
        sig: SigId,
        /// Index expression, evaluated at write time.
        index: NodeId,
    },
    /// Constant part select.
    Part {
        /// Target signal.
        sig: SigId,
        /// Most significant bit.
        msb: u32,
        /// Least significant bit.
        lsb: u32,
    },
    /// Concatenated target, assigned from the high part downward.
    Concat(Vec<IrLValue>),
    /// Unresolvable target; writing raises like the interpreter.
    Unknown(String),
}

/// A lowered procedural statement. Branch-site ids are allocated here —
/// at lowering — and never change afterwards.
#[derive(Debug, Clone, PartialEq)]
pub enum IrStmt {
    /// `begin ... end`
    Block(Vec<IrStmt>),
    /// `if (cond) ... else ...`
    If {
        /// Condition.
        cond: NodeId,
        /// Taken branch.
        then_branch: Box<IrStmt>,
        /// Else branch.
        else_branch: Option<Box<IrStmt>>,
        /// Branch-site id of the then arm (`site + 1` is the else arm).
        site: u32,
    },
    /// `case (scrutinee) ... endcase`
    Case {
        /// Scrutinee.
        scrutinee: NodeId,
        /// Arms in source order.
        arms: Vec<IrCaseArm>,
        /// Default arm.
        default: Option<Box<IrStmt>>,
        /// Branch-site id of the first arm.
        site: u32,
    },
    /// Blocking or nonblocking assignment.
    Assign {
        /// Target.
        lhs: IrLValue,
        /// Value.
        rhs: NodeId,
        /// `<=` if true.
        nonblocking: bool,
    },
    /// `;`
    Empty,
}

/// One lowered case arm.
#[derive(Debug, Clone, PartialEq)]
pub struct IrCaseArm {
    /// Label expressions.
    pub labels: Vec<NodeId>,
    /// Arm body.
    pub body: IrStmt,
}

/// One combinational process in source order.
#[derive(Debug, Clone, PartialEq)]
pub enum IrCombStep {
    /// Continuous assignment.
    Assign {
        /// Target.
        lhs: IrLValue,
        /// Driven value.
        rhs: NodeId,
    },
    /// Combinational always block.
    Block(IrStmt),
}

/// A design lowered to the word-level IR: the canonical middle form every
/// backend consumes (via the bytecode the simulator emits from it).
#[derive(Debug, Clone)]
pub struct IrDesign {
    /// Expression store. Signals are [`SigId`]s in the sorted order of
    /// the design's signal names, the compiled design's state/trace
    /// column order.
    pub arena: Arena,
    /// Combinational steps in declaration order.
    pub comb: Vec<IrCombStep>,
    /// Clocked always bodies in declaration order.
    pub seq: Vec<IrStmt>,
    /// Number of branch sites allocated across all statements.
    pub branch_sites: u32,
}

impl IrDesign {
    /// Lowers an elaborated design. Never fails: unresolvable constructs
    /// lower to [`IrExpr::Fail`] nodes that raise the interpreter's
    /// runtime error when (and only when) evaluated.
    pub fn from_design(design: &Design) -> Self {
        let index: HashMap<&str, SigId> = design
            .signals
            .keys()
            .enumerate()
            .map(|(i, n)| (n.as_str(), SigId(i as u32)))
            .collect();
        let widths: Vec<u32> = design.signals.values().map(|s| s.width).collect();
        let mut lo = Lowerer {
            arena: Arena::new(widths),
            index,
            params: &design.params,
            sites: 0,
        };
        let mut comb = Vec::new();
        let mut seq = Vec::new();
        for item in &design.module.items {
            match item {
                Item::Assign(a) => {
                    let lhs = lo.lvalue(&a.lhs);
                    let rhs = lo.expr(&a.rhs);
                    comb.push(IrCombStep::Assign { lhs, rhs });
                }
                Item::Always(al) => {
                    let body = lo.stmt(&al.body);
                    if al.sensitivity.is_combinational() {
                        comb.push(IrCombStep::Block(body));
                    } else {
                        seq.push(body);
                    }
                }
                _ => {}
            }
        }
        IrDesign {
            arena: lo.arena,
            comb,
            seq,
            branch_sites: lo.sites,
        }
    }

    /// Per-step symbolic cleanliness: `(comb, seq)` vectors, true when
    /// every expression and lvalue in the step is statically guaranteed
    /// to bit-blast. Dead-logic elimination on the symbolic path may only
    /// skip *clean* steps — skipping a maybe-unsupported one could turn a
    /// design the bit-blaster rejects into one it accepts.
    pub fn sym_clean_steps(&self) -> (Vec<bool>, Vec<bool>) {
        let comb = self
            .comb
            .iter()
            .map(|s| match s {
                IrCombStep::Assign { lhs, rhs } => {
                    self.lvalue_clean(lhs) && self.arena.sym_clean(*rhs)
                }
                IrCombStep::Block(b) => self.stmt_clean(b),
            })
            .collect();
        let seq = self.seq.iter().map(|b| self.stmt_clean(b)).collect();
        (comb, seq)
    }

    fn lvalue_clean(&self, lv: &IrLValue) -> bool {
        match lv {
            IrLValue::Whole(_) | IrLValue::Part { .. } => true,
            IrLValue::Bit { index, .. } => self.arena.sym_clean(*index),
            IrLValue::Concat(parts) => parts.iter().all(|p| self.lvalue_clean(p)),
            IrLValue::Unknown(_) => false,
        }
    }

    fn stmt_clean(&self, s: &IrStmt) -> bool {
        match s {
            IrStmt::Block(stmts) => stmts.iter().all(|st| self.stmt_clean(st)),
            IrStmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                self.arena.sym_clean(*cond)
                    && self.stmt_clean(then_branch)
                    && else_branch.as_ref().is_none_or(|e| self.stmt_clean(e))
            }
            IrStmt::Case {
                scrutinee,
                arms,
                default,
                ..
            } => {
                self.arena.sym_clean(*scrutinee)
                    && arms.iter().all(|a| {
                        a.labels.iter().all(|l| self.arena.sym_clean(*l))
                            && self.stmt_clean(&a.body)
                    })
                    && default.as_ref().is_none_or(|d| self.stmt_clean(d))
            }
            IrStmt::Assign { lhs, rhs, .. } => self.lvalue_clean(lhs) && self.arena.sym_clean(*rhs),
            IrStmt::Empty => true,
        }
    }
}

/// Lowering state: the arena plus name resolution and site allocation.
struct Lowerer<'d> {
    arena: Arena,
    index: HashMap<&'d str, SigId>,
    params: &'d std::collections::BTreeMap<String, u64>,
    sites: u32,
}

impl Lowerer<'_> {
    fn name(&mut self, name: &str) -> NodeId {
        if let Some(&sig) = self.index.get(name) {
            self.arena.add(IrExpr::Load(sig))
        } else if let Some(&v) = self.params.get(name) {
            self.arena.konst(param_value(v))
        } else {
            self.arena
                .add(IrExpr::Fail(EvalError::UnknownSignal(name.to_string())))
        }
    }

    fn expr(&mut self, e: &Expr) -> NodeId {
        match e {
            Expr::Number { value, width, .. } => self
                .arena
                .konst(Value::new(*value, width.unwrap_or(32).min(64))),
            Expr::Ident { name, .. } => self.name(name),
            Expr::Unary { op, operand, .. } => {
                let a = self.expr(operand);
                self.arena.add(IrExpr::Unary(*op, a))
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let a = self.expr(lhs);
                let b = self.expr(rhs);
                self.arena.add(IrExpr::Binary(*op, a, b))
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                let c = self.expr(cond);
                let t = self.expr(then_expr);
                let el = self.expr(else_expr);
                self.arena.add(IrExpr::Select {
                    cond: c,
                    then_n: t,
                    else_n: el,
                })
            }
            Expr::Concat { parts, .. } => {
                if parts.is_empty() {
                    return self.arena.add(IrExpr::Fail(EvalError::Malformed(
                        "empty concatenation".into(),
                    )));
                }
                let ids: Vec<NodeId> = parts.iter().map(|p| self.expr(p)).collect();
                self.arena.add(IrExpr::Concat(ids))
            }
            Expr::Repeat { count, value, .. } => {
                let c = self.expr(count);
                let v = self.expr(value);
                self.arena.add(IrExpr::Repeat { count: c, value: v })
            }
            Expr::Bit { name, index, .. } => {
                let base = self.name(name);
                let ix = self.expr(index);
                self.arena.add(IrExpr::BitIndex { base, index: ix })
            }
            Expr::Part { name, range, .. } => {
                let base = self.name(name);
                self.arena.add(IrExpr::Slice {
                    base,
                    msb: range.msb,
                    lsb: range.lsb,
                })
            }
            Expr::SysCall { name, args, .. } => {
                let ids: Vec<NodeId> = args.iter().map(|a| self.expr(a)).collect();
                self.arena.add(IrExpr::SysCall {
                    name: name.clone(),
                    args: ids,
                })
            }
        }
    }

    fn lvalue(&mut self, lv: &LValue) -> IrLValue {
        match lv {
            LValue::Ident { name, .. } => match self.index.get(name.as_str()) {
                Some(&sig) => IrLValue::Whole(sig),
                None => IrLValue::Unknown(name.clone()),
            },
            LValue::Bit {
                name, index: ix, ..
            } => match self.index.get(name.as_str()) {
                Some(&sig) => {
                    let index = self.expr(ix);
                    IrLValue::Bit { sig, index }
                }
                None => IrLValue::Unknown(name.clone()),
            },
            LValue::Part { name, range, .. } => match self.index.get(name.as_str()) {
                Some(&sig) => IrLValue::Part {
                    sig,
                    msb: range.msb,
                    lsb: range.lsb,
                },
                None => IrLValue::Unknown(name.clone()),
            },
            LValue::Concat { parts, .. } => {
                IrLValue::Concat(parts.iter().map(|p| self.lvalue(p)).collect())
            }
        }
    }

    fn stmt(&mut self, s: &Stmt) -> IrStmt {
        match s {
            Stmt::Block { stmts, .. } => {
                IrStmt::Block(stmts.iter().map(|st| self.stmt(st)).collect())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                // Two arms: taken (`site`) and not-taken (`site + 1`),
                // whether or not an else branch exists.
                let site = self.sites;
                self.sites += 2;
                let c = self.expr(cond);
                IrStmt::If {
                    cond: c,
                    then_branch: Box::new(self.stmt(then_branch)),
                    else_branch: else_branch.as_ref().map(|e| Box::new(self.stmt(e))),
                    site,
                }
            }
            Stmt::Case {
                scrutinee,
                arms,
                default,
                ..
            } => {
                // One site per arm plus the (possibly implicit) default.
                let site = self.sites;
                self.sites += arms.len() as u32 + 1;
                let sc = self.expr(scrutinee);
                IrStmt::Case {
                    scrutinee: sc,
                    arms: arms
                        .iter()
                        .map(|arm| IrCaseArm {
                            labels: arm.labels.iter().map(|l| self.expr(l)).collect(),
                            body: self.stmt(&arm.body),
                        })
                        .collect(),
                    default: default.as_ref().map(|d| Box::new(self.stmt(d))),
                    site,
                }
            }
            Stmt::Assign {
                lhs,
                rhs,
                nonblocking,
                ..
            } => {
                let l = self.lvalue(lhs);
                let r = self.expr(rhs);
                IrStmt::Assign {
                    lhs: l,
                    rhs: r,
                    nonblocking: *nonblocking,
                }
            }
            Stmt::Empty { .. } => IrStmt::Empty,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_verilog::compile as velab;

    fn lowered(src: &str) -> IrDesign {
        IrDesign::from_design(&velab(src).expect("compile"))
    }

    #[test]
    fn signals_intern_in_sorted_order() {
        let ir = lowered("module m(input b, input a, output y);\nassign y = a & b;\nendmodule");
        let IrCombStep::Assign { lhs, rhs } = &ir.comb[0] else {
            panic!("assign expected");
        };
        assert_eq!(lhs, &IrLValue::Whole(SigId(2)), "y is the third name");
        let IrExpr::Binary(BinaryOp::BitAnd, a, b) = ir.arena.node(*rhs) else {
            panic!("`a & b` expected");
        };
        assert_eq!(ir.arena.node(*a), &IrExpr::Load(SigId(0)));
        assert_eq!(ir.arena.node(*b), &IrExpr::Load(SigId(1)));
    }

    #[test]
    fn structural_hashing_shares_identical_subtrees() {
        let ir = lowered(
            "module m(input [3:0] a, input [3:0] b, output [3:0] x, output [3:0] y);\n\
             assign x = (a ^ b) + 4'd1;\nassign y = (a ^ b) + 4'd2;\nendmodule",
        );
        // `a ^ b` appears twice in source but once in the arena.
        let xors = ir
            .arena
            .nodes
            .iter()
            .filter(|n| matches!(n, IrExpr::Binary(BinaryOp::BitXor, _, _)))
            .count();
        assert_eq!(xors, 1, "identical subtrees must be interned once");
    }

    #[test]
    fn branch_sites_match_the_legacy_numbering() {
        let ir = lowered(
            "module m(input [1:0] s, input [3:0] a, output reg [3:0] y);\n\
             always @(*) begin\n\
               if (s[0]) y = a; else begin case (s) 2'd0: y = 4'd0; default: y = a; endcase end\n\
             end\nendmodule",
        );
        // if: 2 sites; case: 1 arm + default = 2 sites.
        assert_eq!(ir.branch_sites, 4);
    }

    #[test]
    fn sym_clean_tracks_unsupported_division() {
        let ir = lowered(
            "module m(input [3:0] a, input [3:0] b, output [3:0] y, output [3:0] z);\n\
             assign y = a / b;\nassign z = a / 4'd4;\nendmodule",
        );
        let IrCombStep::Assign { rhs: div_sym, .. } = &ir.comb[0] else {
            panic!("assign expected");
        };
        let IrCombStep::Assign { rhs: div_pow2, .. } = &ir.comb[1] else {
            panic!("assign expected");
        };
        assert!(
            ir.arena.sym_clean(*div_pow2),
            "a / 4 lowers to a shift in the bit-blaster"
        );
        assert!(!ir.arena.sym_clean(*div_sym), "a / b does not bit-blast");
    }

    #[test]
    fn width_inference_matches_value_semantics() {
        let ir = lowered(
            "module m(input [3:0] a, input [7:0] b, output [7:0] y);\n\
             assign y = (a + b) | {a, a};\nendmodule",
        );
        let IrCombStep::Assign { rhs, .. } = &ir.comb[0] else {
            panic!("assign expected");
        };
        assert_eq!(ir.arena.width(*rhs), Some(8), "max-width rule");
    }

    #[test]
    fn unknown_names_lower_to_lazy_fail() {
        // `sema` rejects undeclared names in most positions, so build the
        // node directly: the contract is on the arena.
        let mut arena = Arena::new(vec![4]);
        let f = arena.add(IrExpr::Fail(EvalError::UnknownSignal("ghost".into())));
        assert!(!arena.sym_clean(f));
        let l = arena.add(IrExpr::Load(SigId(0)));
        let gated = arena.add(IrExpr::Select {
            cond: l,
            then_n: f,
            else_n: l,
        });
        assert!(
            !arena.sym_clean(gated),
            "uncleanness propagates conservatively"
        );
    }
}
