//! Expression-site enumeration and in-place transformation.
//!
//! A *site* is one expression node in the design logic (continuous assigns
//! and procedural blocks — never SVA properties, parameters or initial
//! blocks, which the paper's bug generator leaves untouched). Sites are
//! numbered in a deterministic pre-order walk: the slot roots in source
//! order (the order `asv_verilog::pretty::render_module_slots` records
//! them), and within each root its nodes in pre-order. Collection and
//! transformation agree on ids.
//!
//! Collection copies no expression: a [`SiteInfo`] borrows its node from
//! the module, and the sites of one statement share one `assigned` list,
//! which their mutations and candidates share in turn.

use asv_verilog::ast::*;
use asv_verilog::Span;
use std::sync::Arc;

/// Context captured for each site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteInfo<'a> {
    /// Site id (stable across calls for the same module).
    pub id: usize,
    /// The expression at the site, in the module.
    pub expr: &'a Expr,
    /// True when the site is inside an `if`/`case`/ternary condition.
    pub in_condition: bool,
    /// Span of the enclosing statement or item (line granularity).
    pub stmt_span: Span,
    /// Signals assigned by the enclosing statement (for `Direct` analysis:
    /// for a condition site, the signals assigned under that conditional),
    /// shared by every site of the statement.
    pub assigned: Arc<[String]>,
    /// Whether this expression is the *root* of its slot (full RHS, full
    /// condition, full case label) rather than a sub-expression.
    pub is_root: bool,
}

/// Collects every mutation-eligible expression site of a module.
pub fn collect_sites(module: &Module) -> Vec<SiteInfo<'_>> {
    let mut sites = Vec::new();
    for slot in slots(module) {
        let first = sites.len();
        walk(slot.root, slot.in_condition, &mut |expr, in_condition| {
            sites.push(SiteInfo {
                id: sites.len(),
                expr,
                in_condition,
                stmt_span: slot.stmt_span,
                assigned: Arc::clone(&slot.assigned),
                is_root: sites.len() == first,
            });
        });
    }
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
    let mut index = site_id;
    let node = roots_mut(&mut m)
        .into_iter()
        .find_map(|root| node_mut(root, &mut index))?;
    *node = f(node);
    Some(m)
}

/// The node at pre-order position `index` of a slot root, numbering the
/// nodes as site ids number them within the root (0 is the root itself).
/// `None` when the root has fewer nodes; `index` is then lowered by their
/// number.
pub(crate) fn node_mut<'e>(e: &'e mut Expr, index: &mut usize) -> Option<&'e mut Expr> {
    if *index == 0 {
        return Some(e);
    }
    *index -= 1;
    match e {
        Expr::Unary { operand, .. } => node_mut(operand, index),
        Expr::Binary { lhs, rhs, .. } => node_mut(lhs, index).or_else(|| node_mut(rhs, index)),
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => node_mut(cond, index)
            .or_else(|| node_mut(then_expr, index))
            .or_else(|| node_mut(else_expr, index)),
        Expr::Concat { parts: list, .. } | Expr::SysCall { args: list, .. } => {
            list.iter_mut().find_map(|p| node_mut(p, index))
        }
        Expr::Repeat { count, value, .. } => {
            node_mut(count, index).or_else(|| node_mut(value, index))
        }
        Expr::Bit { index: i, .. } => node_mut(i, index),
        Expr::Number { .. } | Expr::Ident { .. } | Expr::Part { .. } => None,
    }
}

/// One slot root with the context of its statement.
struct Slot<'a> {
    root: &'a Expr,
    in_condition: bool,
    stmt_span: Span,
    assigned: Arc<[String]>,
}

/// The slot roots of a module's design logic, in source order.
fn slots(module: &Module) -> Vec<Slot<'_>> {
    let mut out = Vec::new();
    for item in &module.items {
        match item {
            Item::Assign(a) => out.push(Slot {
                root: &a.rhs,
                in_condition: false,
                stmt_span: a.span,
                assigned: targets(&a.lhs),
            }),
            Item::Always(al) => stmt_slots(&al.body, &mut out),
            // Properties, assertions, parameters, nets, initial blocks are
            // never mutated.
            _ => {}
        }
    }
    out
}

fn stmt_slots<'a>(s: &'a Stmt, out: &mut Vec<Slot<'a>>) {
    match s {
        Stmt::Block { stmts, .. } => {
            for st in stmts {
                stmt_slots(st, out);
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
            if let Some(e) = else_branch {
                collect_targets(e, &mut assigned);
            }
            out.push(Slot {
                root: cond,
                in_condition: true,
                stmt_span: *span,
                assigned: sorted(assigned),
            });
            stmt_slots(then_branch, out);
            if let Some(e) = else_branch {
                stmt_slots(e, out);
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
            for arm in arms {
                collect_targets(&arm.body, &mut assigned);
            }
            if let Some(d) = default {
                collect_targets(d, &mut assigned);
            }
            let assigned = sorted(assigned);
            out.push(Slot {
                root: scrutinee,
                in_condition: true,
                stmt_span: *span,
                assigned: Arc::clone(&assigned),
            });
            for arm in arms {
                for label in &arm.labels {
                    out.push(Slot {
                        root: label,
                        in_condition: true,
                        stmt_span: arm.span,
                        assigned: Arc::clone(&assigned),
                    });
                }
                stmt_slots(&arm.body, out);
            }
            if let Some(d) = default {
                stmt_slots(d, out);
            }
        }
        Stmt::Assign { lhs, rhs, span, .. } => out.push(Slot {
            root: rhs,
            in_condition: false,
            stmt_span: *span,
            assigned: targets(lhs),
        }),
        Stmt::Empty { .. } => {}
    }
}

/// The slot roots of a module, mutably, in the order of [`slots`], for the
/// [`transform_site`] oracle. It is a walk of its own because [`slots`]
/// lends its roots for the module's lifetime; the splice tests, which
/// compare every candidate with the rerendered [`transform_site`], fail if
/// the two orders differ.
fn roots_mut(module: &mut Module) -> Vec<&mut Expr> {
    let mut out = Vec::new();
    for item in &mut module.items {
        match item {
            Item::Assign(a) => out.push(&mut a.rhs),
            Item::Always(al) => stmt_roots_mut(&mut al.body, &mut out),
            _ => {}
        }
    }
    out
}

fn stmt_roots_mut<'a>(s: &'a mut Stmt, out: &mut Vec<&'a mut Expr>) {
    match s {
        Stmt::Block { stmts, .. } => {
            for st in stmts {
                stmt_roots_mut(st, out);
            }
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            out.push(cond);
            stmt_roots_mut(then_branch, out);
            if let Some(e) = else_branch {
                stmt_roots_mut(e, out);
            }
        }
        Stmt::Case {
            scrutinee,
            arms,
            default,
            ..
        } => {
            out.push(scrutinee);
            for arm in arms {
                out.extend(&mut arm.labels);
                stmt_roots_mut(&mut arm.body, out);
            }
            if let Some(d) = default {
                stmt_roots_mut(d, out);
            }
        }
        Stmt::Assign { rhs, .. } => out.push(rhs),
        Stmt::Empty { .. } => {}
    }
}

/// Pre-order expression walk, calling `cb` with each node and whether it
/// sits in a condition. Ternary conditions set the flag.
fn walk<'a>(e: &'a Expr, in_condition: bool, cb: &mut impl FnMut(&'a Expr, bool)) {
    cb(e, in_condition);
    match e {
        Expr::Unary { operand, .. } => walk(operand, in_condition, cb),
        Expr::Binary { lhs, rhs, .. } => {
            walk(lhs, in_condition, cb);
            walk(rhs, in_condition, cb);
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => {
            walk(cond, true, cb);
            walk(then_expr, in_condition, cb);
            walk(else_expr, in_condition, cb);
        }
        Expr::Concat { parts: list, .. } | Expr::SysCall { args: list, .. } => {
            for p in list {
                walk(p, in_condition, cb);
            }
        }
        Expr::Repeat { count, value, .. } => {
            walk(count, in_condition, cb);
            walk(value, in_condition, cb);
        }
        Expr::Bit { index, .. } => walk(index, in_condition, cb),
        Expr::Number { .. } | Expr::Ident { .. } | Expr::Part { .. } => {}
    }
}

/// The signals an lvalue writes.
fn targets(lhs: &LValue) -> Arc<[String]> {
    lhs.target_names().into_iter().map(str::to_string).collect()
}

/// `names` sorted and deduplicated.
fn sorted(mut names: Vec<String>) -> Arc<[String]> {
    names.sort();
    names.dedup();
    names.into()
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
            if let Expr::Number { value, width, .. } = *s.expr {
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
            .find(|s| !s.in_condition && s.is_root && s.assigned[..] == ["g"])
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
