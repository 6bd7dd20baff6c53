//! IR → bytecode emission.
//!
//! [`emit_design`] lowers an [`IrDesign`] into the executable
//! [`CombStep`]/[`CStmt`]/[`ExprProg`] form by plain tree expansion: a
//! node the DAG shares is emitted again at each use, so every program has
//! the shape the direct AST lowering of property expressions
//! ([`super::bytecode::compile_expr`]) gives.

use super::{CCaseArm, CLValue, CStmt, CombStep};
use crate::compile::bytecode::{ExprProg, Op};
use asv_ir::ir::{IrCaseArm, IrCombStep, IrDesign, IrExpr, IrLValue, IrStmt, NodeId};

/// The emitted executable design body.
pub struct EmittedDesign {
    /// Combinational steps in declaration order.
    pub comb: Vec<CombStep>,
    /// Clocked always bodies in declaration order.
    pub seq: Vec<CStmt>,
}

/// Emits every program of the design.
pub fn emit_design(ir: &IrDesign) -> EmittedDesign {
    let e = Emitter { ir };
    let comb = ir
        .comb
        .iter()
        .map(|step| match step {
            IrCombStep::Assign { lhs, rhs } => CombStep::Assign {
                lhs: e.lvalue(lhs),
                rhs: e.program(*rhs),
            },
            IrCombStep::Block(body) => CombStep::Block(e.stmt(body)),
        })
        .collect();
    let seq = ir.seq.iter().map(|b| e.stmt(b)).collect();
    EmittedDesign { comb, seq }
}

/// Every constant value appearing in a set of emitted programs — the
/// fuzzer's dictionary source.
pub fn harvest_consts(comb: &[CombStep], seq: &[CStmt]) -> Vec<u64> {
    fn prog(p: &ExprProg, out: &mut Vec<u64>) {
        for op in &p.ops {
            if let Op::Const(v) = op {
                out.push(v.bits());
            }
        }
        for sub in &p.subs {
            prog(sub, out);
        }
    }
    fn lv(l: &CLValue, out: &mut Vec<u64>) {
        match l {
            CLValue::Bit { index, .. } => prog(index, out),
            CLValue::Concat(parts) => parts.iter().for_each(|p| lv(p, out)),
            _ => {}
        }
    }
    fn stmt(s: &CStmt, out: &mut Vec<u64>) {
        match s {
            CStmt::Block(stmts) => stmts.iter().for_each(|st| stmt(st, out)),
            CStmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                prog(cond, out);
                stmt(then_branch, out);
                if let Some(e) = else_branch {
                    stmt(e, out);
                }
            }
            CStmt::Case {
                scrutinee,
                arms,
                default,
                ..
            } => {
                prog(scrutinee, out);
                for a in arms {
                    a.labels.iter().for_each(|l| prog(l, out));
                    stmt(&a.body, out);
                }
                if let Some(d) = default {
                    stmt(d, out);
                }
            }
            CStmt::Assign { lhs, rhs, .. } => {
                lv(lhs, out);
                prog(rhs, out);
            }
            CStmt::Empty => {}
        }
    }
    let mut out = Vec::new();
    for s in comb {
        match s {
            CombStep::Assign { lhs, rhs } => {
                lv(lhs, &mut out);
                prog(rhs, &mut out);
            }
            CombStep::Block(b) => stmt(b, &mut out),
        }
    }
    for b in seq {
        stmt(b, &mut out);
    }
    out.sort_unstable();
    out.dedup();
    out
}

struct Emitter<'a> {
    ir: &'a IrDesign,
}

impl Emitter<'_> {
    fn lvalue(&self, lv: &IrLValue) -> CLValue {
        match lv {
            IrLValue::Whole(sig) => CLValue::Whole(*sig),
            IrLValue::Bit { sig, index } => CLValue::Bit {
                sig: *sig,
                index: self.program(*index),
            },
            IrLValue::Part { sig, msb, lsb } => CLValue::Part {
                sig: *sig,
                msb: *msb,
                lsb: *lsb,
            },
            IrLValue::Concat(parts) => {
                CLValue::Concat(parts.iter().map(|p| self.lvalue(p)).collect())
            }
            IrLValue::Unknown(name) => CLValue::Unknown(name.clone()),
        }
    }

    fn stmt(&self, s: &IrStmt) -> CStmt {
        match s {
            IrStmt::Block(stmts) => CStmt::Block(stmts.iter().map(|st| self.stmt(st)).collect()),
            IrStmt::If {
                cond,
                then_branch,
                else_branch,
                site,
            } => CStmt::If {
                cond: self.program(*cond),
                then_branch: Box::new(self.stmt(then_branch)),
                else_branch: else_branch.as_ref().map(|e| Box::new(self.stmt(e))),
                site: *site,
            },
            IrStmt::Case {
                scrutinee,
                arms,
                default,
                site,
            } => CStmt::Case {
                scrutinee: self.program(*scrutinee),
                arms: arms
                    .iter()
                    .map(|IrCaseArm { labels, body }| CCaseArm {
                        labels: labels.iter().map(|l| self.program(*l)).collect(),
                        body: self.stmt(body),
                    })
                    .collect(),
                default: default.as_ref().map(|d| Box::new(self.stmt(d))),
                site: *site,
            },
            IrStmt::Assign {
                lhs,
                rhs,
                nonblocking,
            } => CStmt::Assign {
                lhs: self.lvalue(lhs),
                rhs: self.program(*rhs),
                nonblocking: *nonblocking,
            },
            IrStmt::Empty => CStmt::Empty,
        }
    }

    /// Emits one root expression as a self-contained program.
    fn program(&self, root: NodeId) -> ExprProg {
        let mut prog = ExprProg::default();
        emit_node(self.ir, root, &mut prog);
        prog
    }
}

fn emit_node(ir: &IrDesign, id: NodeId, prog: &mut ExprProg) {
    match ir.arena.node(id) {
        IrExpr::Const(v) => prog.ops.push(Op::Const(*v)),
        IrExpr::Load(sig) => prog.ops.push(Op::Load(*sig)),
        IrExpr::Fail(e) => prog.ops.push(Op::Fail(e.clone())),
        IrExpr::Unary(op, a) => {
            emit_node(ir, *a, prog);
            prog.ops.push(Op::Unary(*op));
        }
        IrExpr::Binary(op, a, b) => {
            emit_node(ir, *a, prog);
            emit_node(ir, *b, prog);
            prog.ops.push(Op::Binary(*op));
        }
        IrExpr::Select {
            cond,
            then_n,
            else_n,
        } => {
            emit_node(ir, *cond, prog);
            let jif = prog.ops.len();
            prog.ops.push(Op::JumpIfFalse(0));
            emit_node(ir, *then_n, prog);
            let jend = prog.ops.len();
            prog.ops.push(Op::Jump(0));
            let else_start = prog.ops.len() as u32;
            emit_node(ir, *else_n, prog);
            let end = prog.ops.len() as u32;
            prog.ops[jif] = Op::JumpIfFalse(else_start);
            prog.ops[jend] = Op::Jump(end);
        }
        IrExpr::Concat(parts) => {
            for p in parts {
                emit_node(ir, *p, prog);
            }
            prog.ops
                .push(Op::ConcatN(u16::try_from(parts.len()).unwrap_or(u16::MAX)));
        }
        IrExpr::Repeat { count, value } => {
            emit_node(ir, *count, prog);
            prog.ops.push(Op::RepeatGuard);
            emit_node(ir, *value, prog);
            prog.ops.push(Op::Repeat);
        }
        IrExpr::BitIndex { base, index } => {
            emit_node(ir, *base, prog);
            emit_node(ir, *index, prog);
            prog.ops.push(Op::BitIndex);
        }
        IrExpr::Slice { base, msb, lsb } => {
            emit_node(ir, *base, prog);
            prog.ops.push(Op::Slice(*msb, *lsb));
        }
        IrExpr::SysCall { name, args } => {
            for a in args {
                emit_node(ir, *a, prog);
            }
            prog.ops.push(Op::SysCall {
                name: name.as_str().into(),
                argc: u8::try_from(args.len()).unwrap_or(u8::MAX),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use asv_verilog::compile as velab;

    fn programs(src: &str) -> Vec<ExprProg> {
        let ir = IrDesign::from_design(&velab(src).expect("compile"));
        let emitted = emit_design(&ir);
        emitted
            .comb
            .iter()
            .filter_map(|s| match s {
                CombStep::Assign { rhs, .. } => Some(rhs.clone()),
                CombStep::Block(_) => None,
            })
            .collect()
    }

    #[test]
    fn raw_emission_matches_the_legacy_shape() {
        let progs = programs(
            "module m #(parameter W = 5)(input s, input [7:0] a, output [7:0] y);\n\
             assign y = s ? a + W : a;\nendmodule",
        );
        // The tree-expanded stream, with the parameter folded: Load s,
        // JumpIfFalse, Load a, Const 5, Binary Add, Jump, Load a.
        let ops = &progs[0].ops;
        assert!(matches!(ops[0], Op::Load(_)));
        assert!(matches!(ops[1], Op::JumpIfFalse(6)));
        assert!(matches!(ops[2], Op::Load(_)));
        assert!(matches!(ops[3], Op::Const(v) if v == Value::new(5, 32)));
        assert!(matches!(
            ops[4],
            Op::Binary(asv_verilog::ast::BinaryOp::Add)
        ));
        assert!(matches!(ops[5], Op::Jump(7)));
        assert!(matches!(ops[6], Op::Load(_)));
        assert_eq!(ops.len(), 7);
    }
}
