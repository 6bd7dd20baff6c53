//! Expression-site enumeration and in-place transformation.
//!
//! A *site* is one expression node in the design logic (continuous assigns
//! and procedural blocks — never SVA properties, parameters or initial
//! blocks, which the paper's bug generator leaves untouched). Sites are
//! numbered in a deterministic pre-order walk so that collection and
//! transformation agree on ids.

use asv_verilog::ast::*;
use asv_verilog::Span;
use serde::{Deserialize, Serialize};

/// Context captured for each site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteInfo {
    /// Site id (stable across calls for the same module).
    pub id: usize,
    /// The expression at the site.
    pub expr: Expr,
    /// True when the site is inside an `if`/`case`/ternary condition.
    pub in_condition: bool,
    /// Span of the enclosing statement or item (line granularity).
    pub stmt_span: Span,
    /// Signals assigned by the enclosing statement (for `Direct` analysis:
    /// for a condition site, the signals assigned under that conditional).
    pub assigned: Vec<String>,
    /// Whether this expression is the *root* of its slot (full RHS, full
    /// condition, full case label) rather than a sub-expression.
    pub is_root: bool,
}

/// Collects every mutation-eligible expression site of a module.
pub fn collect_sites(module: &Module) -> Vec<SiteInfo> {
    let mut sites = Vec::new();
    let mut next_id = 0usize;
    let mut m = module.clone();
    visit_module(&mut m, &mut |ctx, expr| {
        sites.push(SiteInfo {
            id: next_id,
            expr: expr.clone(),
            in_condition: ctx.in_condition,
            stmt_span: ctx.stmt_span,
            assigned: ctx.assigned.clone(),
            is_root: ctx.is_root,
        });
        next_id += 1;
    });
    sites
}

/// Returns a copy of `module` with the expression at `site_id` replaced by
/// `f(original)`. Returns `None` if the id is out of range. Rendered in
/// full, this is the test oracle for the spliced single-line edits of
/// [`crate::candidates`] and [`crate::apply`].
pub fn transform_site(
    module: &Module,
    site_id: usize,
    f: impl FnOnce(&Expr) -> Expr,
) -> Option<Module> {
    let mut m = module.clone();
    let mut next_id = 0usize;
    let mut f = Some(f);
    let mut hit = false;
    visit_module(&mut m, &mut |_ctx, expr| {
        if next_id == site_id {
            if let Some(f) = f.take() {
                *expr = f(expr);
                hit = true;
            }
        }
        next_id += 1;
    });
    hit.then_some(m)
}

/// Replaces the node at pre-order position `index` of a slot root by
/// `f(node)`, numbering the nodes as site ids number them within the root
/// (0 is the root itself). Returns false when the root has no such node.
pub(crate) fn transform_node(root: &mut Expr, index: usize, f: impl FnOnce(&Expr) -> Expr) -> bool {
    let ctx = Ctx {
        in_condition: false,
        stmt_span: Span::default(),
        assigned: Vec::new(),
        is_root: true,
    };
    let mut next = 0usize;
    let mut f = Some(f);
    let mut hit = false;
    visit_expr(root, &ctx, &mut |_ctx, expr| {
        if next == index {
            if let Some(f) = f.take() {
                *expr = f(expr);
                hit = true;
            }
        }
        next += 1;
    });
    hit
}

/// Visitor context.
pub(crate) struct Ctx {
    pub in_condition: bool,
    pub stmt_span: Span,
    pub assigned: Vec<String>,
    pub is_root: bool,
}

/// Walks all design-logic expressions of a module in deterministic
/// pre-order, invoking `cb` with a mutable reference to each node.
pub(crate) fn visit_module(module: &mut Module, cb: &mut impl FnMut(&Ctx, &mut Expr)) {
    // Two passes over items would break determinism; a single ordered pass.
    for item in &mut module.items {
        match item {
            Item::Assign(a) => {
                let ctx = Ctx {
                    in_condition: false,
                    stmt_span: a.span,
                    assigned: a.lhs.target_names().iter().map(|s| s.to_string()).collect(),
                    is_root: true,
                };
                visit_expr(&mut a.rhs, &ctx, cb);
            }
            Item::Always(al) => {
                visit_stmt(&mut al.body, cb);
            }
            // Properties, assertions, parameters, nets, initial blocks are
            // never mutated.
            _ => {}
        }
    }
}

fn visit_stmt(s: &mut Stmt, cb: &mut impl FnMut(&Ctx, &mut Expr)) {
    match s {
        Stmt::Block { stmts, .. } => {
            for st in stmts {
                visit_stmt(st, cb);
            }
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            span,
        } => {
            let mut assigned = Vec::new();
            collect_targets(then_branch, &mut assigned);
            if let Some(e) = else_branch.as_deref() {
                collect_targets(e, &mut assigned);
            }
            assigned.sort();
            assigned.dedup();
            let ctx = Ctx {
                in_condition: true,
                stmt_span: *span,
                assigned,
                is_root: true,
            };
            visit_expr(cond, &ctx, cb);
            visit_stmt(then_branch, cb);
            if let Some(e) = else_branch {
                visit_stmt(e, cb);
            }
        }
        Stmt::Case {
            scrutinee,
            arms,
            default,
            span,
            ..
        } => {
            let mut assigned = Vec::new();
            for arm in arms.iter() {
                collect_targets(&arm.body, &mut assigned);
            }
            if let Some(d) = default.as_deref() {
                collect_targets(d, &mut assigned);
            }
            assigned.sort();
            assigned.dedup();
            let ctx = Ctx {
                in_condition: true,
                stmt_span: *span,
                assigned: assigned.clone(),
                is_root: true,
            };
            visit_expr(scrutinee, &ctx, cb);
            for arm in arms {
                let actx = Ctx {
                    in_condition: true,
                    stmt_span: arm.span,
                    assigned: assigned.clone(),
                    is_root: true,
                };
                for label in &mut arm.labels {
                    visit_expr(label, &actx, cb);
                }
                visit_stmt(&mut arm.body, cb);
            }
            if let Some(d) = default {
                visit_stmt(d, cb);
            }
        }
        Stmt::Assign { lhs, rhs, span, .. } => {
            let ctx = Ctx {
                in_condition: false,
                stmt_span: *span,
                assigned: lhs.target_names().iter().map(|s| s.to_string()).collect(),
                is_root: true,
            };
            visit_expr(rhs, &ctx, cb);
        }
        Stmt::Empty { .. } => {}
    }
}

/// Pre-order expression walk. Ternary conditions flip `in_condition`.
fn visit_expr(e: &mut Expr, ctx: &Ctx, cb: &mut impl FnMut(&Ctx, &mut Expr)) {
    cb(ctx, e);
    let child = Ctx {
        in_condition: ctx.in_condition,
        stmt_span: ctx.stmt_span,
        assigned: ctx.assigned.clone(),
        is_root: false,
    };
    match e {
        Expr::Unary { operand, .. } => visit_expr(operand, &child, cb),
        Expr::Binary { lhs, rhs, .. } => {
            visit_expr(lhs, &child, cb);
            visit_expr(rhs, &child, cb);
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => {
            let cond_ctx = Ctx {
                in_condition: true,
                stmt_span: ctx.stmt_span,
                assigned: ctx.assigned.clone(),
                is_root: false,
            };
            visit_expr(cond, &cond_ctx, cb);
            visit_expr(then_expr, &child, cb);
            visit_expr(else_expr, &child, cb);
        }
        Expr::Concat { parts, .. } => {
            for p in parts {
                visit_expr(p, &child, cb);
            }
        }
        Expr::Repeat { count, value, .. } => {
            visit_expr(count, &child, cb);
            visit_expr(value, &child, cb);
        }
        Expr::Bit { index, .. } => visit_expr(index, &child, cb),
        Expr::SysCall { args, .. } => {
            for a in args {
                visit_expr(a, &child, cb);
            }
        }
        Expr::Number { .. } | Expr::Ident { .. } | Expr::Part { .. } => {}
    }
}

fn collect_targets(s: &Stmt, out: &mut Vec<String>) {
    match s {
        Stmt::Block { stmts, .. } => stmts.iter().for_each(|st| collect_targets(st, out)),
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            collect_targets(then_branch, out);
            if let Some(e) = else_branch {
                collect_targets(e, out);
            }
        }
        Stmt::Case { arms, default, .. } => {
            for arm in arms {
                collect_targets(&arm.body, out);
            }
            if let Some(d) = default {
                collect_targets(d, out);
            }
        }
        Stmt::Assign { lhs, .. } => {
            out.extend(lhs.target_names().iter().map(|s| s.to_string()));
        }
        Stmt::Empty { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_verilog::parse;

    const SRC: &str = "module m(input clk, input en, input [3:0] a, input [3:0] b,\n\
        output reg [3:0] y);\n\
        wire g;\n\
        assign g = en & a[0];\n\
        always @(posedge clk) begin\n\
          if (g) y <= a + b;\n\
          else y <= b;\n\
        end\n\
        property p; @(posedge clk) g |-> ##1 y == 4'd0 || y != 4'd0; endproperty\n\
        assert property (p);\nendmodule";

    fn module() -> Module {
        parse(SRC).expect("parse").modules[0].clone()
    }

    #[test]
    fn sites_are_deterministic() {
        let m = module();
        let a = collect_sites(&m);
        let b = collect_sites(&m);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn property_expressions_are_not_sites() {
        let m = module();
        for s in collect_sites(&m) {
            let mut idents = Vec::new();
            s.expr.collect_idents(&mut idents);
            // The property references y with literal 4'd0 comparisons; no
            // design expression in SRC contains the number 0 with width 4.
            if let Expr::Number { value, width, .. } = s.expr {
                assert!(
                    !(value == 0 && width == Some(4)),
                    "property literal leaked into sites"
                );
            }
        }
    }

    #[test]
    fn condition_sites_are_flagged() {
        let m = module();
        let sites = collect_sites(&m);
        let g_cond = sites
            .iter()
            .find(|s| s.in_condition && matches!(&s.expr, Expr::Ident { name, .. } if name == "g"))
            .expect("if-condition site for g");
        assert!(g_cond.assigned.contains(&"y".to_string()));
        assert!(g_cond.is_root);
    }

    #[test]
    fn assign_sites_record_targets() {
        let m = module();
        let sites = collect_sites(&m);
        let rhs = sites
            .iter()
            .find(|s| !s.in_condition && s.is_root && s.assigned == vec!["g".to_string()])
            .expect("assign g site");
        assert!(matches!(rhs.expr, Expr::Binary { .. }));
    }

    #[test]
    fn transform_replaces_exactly_one_site() {
        let m = module();
        let sites = collect_sites(&m);
        let target = sites
            .iter()
            .find(|s| {
                matches!(
                    &s.expr,
                    Expr::Binary {
                        op: BinaryOp::Add,
                        ..
                    }
                )
            })
            .expect("a + b site");
        let mutated = transform_site(&m, target.id, |e| {
            let Expr::Binary { lhs, rhs, span, .. } = e else {
                panic!("site type changed")
            };
            Expr::Binary {
                op: BinaryOp::Sub,
                lhs: lhs.clone(),
                rhs: rhs.clone(),
                span: *span,
            }
        })
        .expect("transform");
        let before = asv_verilog::pretty::render_module(&m);
        let after = asv_verilog::pretty::render_module(&mutated);
        let diffs: Vec<(&str, &str)> = before
            .lines()
            .zip(after.lines())
            .filter(|(x, y)| x != y)
            .collect();
        assert_eq!(diffs.len(), 1, "exactly one line must change");
        assert!(diffs[0].0.contains("a + b"));
        assert!(diffs[0].1.contains("a - b"));
    }

    #[test]
    fn transform_out_of_range_returns_none() {
        let m = module();
        assert!(transform_site(&m, 10_000, |e| e.clone()).is_none());
    }

    #[test]
    fn ternary_condition_is_condition_context() {
        let unit = parse(
            "module t(input s, input [3:0] a, input [3:0] b, output [3:0] y);\n\
             assign y = s ? a : b;\nendmodule",
        )
        .expect("parse");
        let sites = collect_sites(&unit.modules[0]);
        let s_site = sites
            .iter()
            .find(|si| matches!(&si.expr, Expr::Ident { name, .. } if name == "s"))
            .expect("s site");
        assert!(s_site.in_condition);
    }
}
