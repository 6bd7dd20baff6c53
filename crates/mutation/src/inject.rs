//! Bug injection: enumerate, apply and classify single-token mutations.
//!
//! This is the reproduction's substitute for the paper's Claude-3.5 random
//! bug generator (Stage 2). Unlike an LLM it covers the Table I taxonomy by
//! construction, and like the paper every injected bug is still validated
//! downstream by the compiler and the bounded verifier.

use crate::kinds::{BugClass, SyntacticKind};
use crate::repairspace::splice_line;
use crate::sites::{collect_sites, node_mut, SiteInfo};
use asv_verilog::ast::*;
use asv_verilog::pretty::{render_module_slots, write_expr};
use asv_verilog::sema::Design;
use asv_verilog::Span;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// A concrete single-site edit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Edit {
    /// Replace the binary operator.
    SwapBinOp(BinaryOp),
    /// Replace the literal value.
    SetLiteral(u64),
    /// Replace the identifier.
    SetIdent(String),
    /// Wrap the expression in a logical negation.
    Negate,
    /// Remove a top-level logical/bitwise negation.
    Unnegate,
}

impl Edit {
    /// `e` rewritten by this edit, or `None` when the edit does not fit
    /// `e`'s shape.
    pub fn rewrite(&self, e: &Expr) -> Option<Expr> {
        let mut out = e.clone();
        self.apply_in_place(&mut out).then_some(out)
    }

    /// Rewrites `e` in place by this edit; false, leaving `e` as it was,
    /// when the edit does not fit `e`'s shape.
    fn apply_in_place(&self, e: &mut Expr) -> bool {
        match (self, &mut *e) {
            (Edit::SwapBinOp(new), Expr::Binary { op, .. }) => *op = *new,
            (Edit::SetLiteral(v), Expr::Number { value, .. }) => *value = *v,
            (Edit::SetIdent(n), Expr::Ident { name, .. }) => name.clone_from(n),
            (Edit::Negate, _) => {
                let span = e.span();
                let operand = Box::new(std::mem::replace(e, PLACEHOLDER));
                *e = Expr::Unary {
                    op: UnaryOp::LogicNot,
                    operand,
                    span,
                };
            }
            (
                Edit::Unnegate,
                Expr::Unary {
                    op: UnaryOp::LogicNot | UnaryOp::BitNot,
                    operand,
                    ..
                },
            ) => {
                let inner = std::mem::replace(&mut **operand, PLACEHOLDER);
                *e = inner;
            }
            _ => return false,
        }
        true
    }
}

/// A node that owns no heap memory, left behind while an edit moves a
/// subtree.
const PLACEHOLDER: Expr = Expr::Number {
    value: 0,
    width: None,
    base: None,
    span: Span { start: 0, end: 0 },
};

/// One enumerated mutation: a site plus an edit plus its classification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mutation {
    /// Site id (see [`crate::sites`]).
    pub site_id: usize,
    /// The edit to perform.
    pub edit: Edit,
    /// Classification (``direct`` filled in by [`classify_direct`]).
    pub class: BugClass,
    /// Span of the enclosing statement in the *original* AST.
    pub stmt_span: Span,
    /// Signals assigned by the enclosing statement, shared with its site.
    pub assigned: Arc<[String]>,
}

/// The rendered artefacts of applying a mutation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Injection {
    /// Canonically rendered buggy source.
    pub buggy_source: String,
    /// Canonically rendered golden source.
    pub golden_source: String,
    /// 1-based line number of the changed line in the rendered source.
    pub line_no: u32,
    /// The buggy line text (trimmed).
    pub buggy_line: String,
    /// The golden line text (trimmed).
    pub fixed_line: String,
    /// The mutation that produced this injection.
    pub mutation: Mutation,
}

/// Enumerates every applicable mutation of a module, in deterministic
/// order. Identifier swaps are restricted to same-width signals from the
/// design's symbol table (never the clock or reset).
pub fn enumerate(design: &Design) -> Vec<Mutation> {
    enumerate_sites(design, &collect_sites(&design.module))
}

/// [`enumerate`] over the design's already collected sites.
pub(crate) fn enumerate_sites(design: &Design, sites: &[SiteInfo]) -> Vec<Mutation> {
    let clock = design.clock();
    let reset = design.reset().map(|(n, _)| n);
    let mut out = Vec::new();
    for site in sites {
        // Sites touching only clock/reset are infrastructure (e.g. the
        // `!rst_n` guard): excluded from mutation entirely so the edit
        // space stays closed under inversion.
        let (mut any, mut infra_only) = (false, true);
        site.expr.for_each_ident(&mut |n| {
            any = true;
            infra_only &= Some(n) == clock || Some(n) == reset;
        });
        if any && infra_only {
            continue;
        }
        match site.expr {
            Expr::Binary { op, .. } => {
                for peer in op_peers(*op) {
                    out.push(make(site, Edit::SwapBinOp(peer), SyntacticKind::Op));
                }
            }
            Expr::Number { value, width, .. } => {
                let w = width.unwrap_or(32).min(64);
                let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
                let mut alts: BTreeSet<u64> = BTreeSet::new();
                alts.insert(value.wrapping_add(1) & mask);
                alts.insert(value.wrapping_sub(1) & mask);
                alts.insert((value ^ (1 << (w.saturating_sub(1)))) & mask);
                alts.remove(value);
                for alt in alts {
                    out.push(make(site, Edit::SetLiteral(alt), SyntacticKind::Value));
                }
            }
            Expr::Ident { name, .. } => {
                // Clock/reset references are infrastructure, not logic:
                // mutating them is excluded (keeps the edit space closed
                // under inversion, since they are also excluded as
                // replacement names).
                if Some(name.as_str()) == clock || Some(name.as_str()) == reset {
                    continue;
                }
                let width = design.width_of(name);
                // All same-width peers (no truncation: truncating would
                // break inversion symmetry of the edit space).
                let alts = design.signals.values().filter(|s| {
                    s.name != *name
                        && Some(s.width) == width
                        && Some(s.name.as_str()) != clock
                        && Some(s.name.as_str()) != reset
                });
                for alt in alts.map(|s| s.name.as_str()) {
                    out.push(make(
                        site,
                        Edit::SetIdent(alt.to_string()),
                        SyntacticKind::Var,
                    ));
                }
                // Inserted negation on slot roots: covers both the
                // Fig. 1 condition bug (`end_cnt` → `!end_cnt`) and RHS
                // polarity bugs (`q <= d` → `q <= !d`).
                if site.is_root {
                    out.push(make(site, Edit::Negate, SyntacticKind::Op));
                }
            }
            Expr::Unary {
                op: UnaryOp::LogicNot | UnaryOp::BitNot,
                ..
            } => {
                // Only slot roots: the inverse edit (Negate) is only
                // offered there, and the space must stay inversion-closed.
                if site.is_root {
                    out.push(make(site, Edit::Unnegate, SyntacticKind::Op));
                }
            }
            _ => {
                if site.is_root {
                    out.push(make(site, Edit::Negate, SyntacticKind::Op));
                }
            }
        }
    }
    out
}

fn make(site: &SiteInfo, edit: Edit, syntactic: SyntacticKind) -> Mutation {
    Mutation {
        site_id: site.id,
        edit,
        class: BugClass {
            syntactic,
            cond: site.in_condition,
            direct: None,
        },
        stmt_span: site.stmt_span,
        assigned: Arc::clone(&site.assigned),
    }
}

/// Operator confusion peers used for `Op` bugs. Peers form *symmetric
/// closure groups* so the repair space is closed under inversion: if a
/// golden `op` can be corrupted to `op'`, then `op'`'s peers include `op`.
fn op_peers(op: BinaryOp) -> Vec<BinaryOp> {
    use BinaryOp as B;
    const GROUPS: [&[BinaryOp]; 6] = [
        &[B::Add, B::Sub, B::Mul],
        &[B::BitAnd, B::BitOr, B::BitXor],
        &[B::LogicAnd, B::LogicOr],
        &[B::Eq, B::Ne],
        &[B::Lt, B::Le, B::Gt, B::Ge],
        &[B::Shl, B::Shr],
    ];
    for group in GROUPS {
        if group.contains(&op) {
            return group.iter().copied().filter(|o| *o != op).collect();
        }
    }
    Vec::new()
}

/// Errors from applying a mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectError {
    /// The site id did not resolve (module changed since enumeration).
    StaleSite(usize),
    /// The edit produced source identical to the golden source.
    NoOp,
    /// The edit no longer matches the node shape at the site.
    ShapeMismatch(usize),
}

impl fmt::Display for InjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectError::StaleSite(id) => write!(f, "stale mutation site {id}"),
            InjectError::NoOp => write!(f, "mutation does not change the source"),
            InjectError::ShapeMismatch(id) => write!(f, "node shape changed at site {id}"),
        }
    }
}

impl std::error::Error for InjectError {}

/// Applies a mutation, producing the rendered buggy/golden pair.
///
/// The golden module is rendered once and the mutated line spliced into
/// it, as [`crate::candidates`] builds its candidates; the result equals
/// rendering the mutated module in full.
///
/// # Errors
///
/// Returns [`InjectError`] when the site is stale, the node shape does not
/// match the edit, or the edit is a no-op after rendering.
pub fn apply(design: &Design, mutation: &Mutation) -> Result<Injection, InjectError> {
    let sites = collect_sites(&design.module);
    let rendering = Rendering::new(&design.module, &sites);
    let edit = rendering.edit(mutation, &mut String::new())?;
    let buggy_source = splice_line(&rendering.source, edit.line_no, &edit.new_line)
        .expect("the edited line exists");
    Ok(Injection {
        buggy_source,
        golden_source: rendering.source.to_string(),
        line_no: edit.line_no,
        buggy_line: edit.new_line,
        fixed_line: edit.old_line.to_string(),
        mutation: mutation.clone(),
    })
}

/// A module rendered once, with the place of every slot root (see
/// `asv_verilog::pretty`). A single-site edit re-renders only the root that
/// holds its site and splices it into that root's line, which equals the
/// full re-render of the mutated module by construction.
pub(crate) struct Rendering<'a> {
    /// The canonical rendering (`render_module`).
    pub source: Arc<str>,
    /// The slot roots in site order.
    roots: Vec<Root<'a>>,
}

/// One slot root of a [`Rendering`].
struct Root<'a> {
    /// Site id of the root itself; its subtree holds the following ids.
    first_site: usize,
    expr: &'a Expr,
    /// Byte range of the root in the rendering.
    span: Range<usize>,
    /// Byte range of its line's text in the rendering: the line without
    /// its leading and trailing whitespace. It holds `span`, because a
    /// rendered expression neither starts nor ends with whitespace.
    text: Range<usize>,
    /// 1-based number of that line.
    line_no: u32,
    /// That line's text, shared by the roots on the line and their edits.
    old_line: Arc<str>,
}

/// One edited line: 1-based number, and the line before and after the
/// edit, trimmed.
pub(crate) struct LineEdit {
    pub line_no: u32,
    pub old_line: Arc<str>,
    pub new_line: String,
}

impl<'a> Rendering<'a> {
    /// Renders `module`; `sites` are its sites as [`collect_sites`]
    /// returns them.
    pub fn new(module: &Module, sites: &[SiteInfo<'a>]) -> Self {
        let (source, spans) = render_module_slots(module);
        let mut root_sites = sites.iter().filter(|s| s.is_root);
        let mut roots: Vec<Root> = Vec::with_capacity(spans.len());
        let (mut line_no, mut counted) = (1u32, 0usize);
        for span in spans {
            let site = root_sites.next().expect("one root site per recorded slot");
            line_no += source.as_bytes()[counted..span.start]
                .iter()
                .filter(|&&b| b == b'\n')
                .count() as u32;
            counted = span.start;
            let (text, old_line) = match roots.last() {
                Some(prev) if prev.line_no == line_no => {
                    (prev.text.clone(), Arc::clone(&prev.old_line))
                }
                _ => {
                    let start = source[..span.start].rfind('\n').map_or(0, |i| i + 1);
                    let end = source[span.end..]
                        .find('\n')
                        .map_or(source.len(), |i| span.end + i);
                    let line = &source[start..end];
                    let text_start = start + (line.len() - line.trim_start().len());
                    let text = line.trim();
                    (text_start..text_start + text.len(), Arc::from(text))
                }
            };
            debug_assert!(text.start <= span.start && span.end <= text.end);
            roots.push(Root {
                first_site: site.id,
                expr: site.expr,
                span,
                text,
                line_no,
                old_line,
            });
        }
        assert!(
            root_sites.next().is_none(),
            "one recorded slot per root site"
        );
        Rendering {
            source: source.into(),
            roots,
        }
    }

    /// The line `mutation` edits, rendered by re-rendering its slot root
    /// into `scratch`; the new line is allocated once, at its final size.
    ///
    /// # Errors
    ///
    /// As [`apply`].
    pub fn edit(&self, mutation: &Mutation, scratch: &mut String) -> Result<LineEdit, InjectError> {
        let id = mutation.site_id;
        let stale = InjectError::StaleSite(id);
        let last = self.roots.partition_point(|r| r.first_site <= id);
        let root = &self.roots[last.checked_sub(1).ok_or(stale.clone())?];
        let mut expr = root.expr.clone();
        let node = node_mut(&mut expr, &mut (id - root.first_site)).ok_or(stale)?;
        if !mutation.edit.apply_in_place(node) {
            return Err(InjectError::ShapeMismatch(id));
        }
        scratch.clear();
        write_expr(scratch, &expr);
        if *scratch == self.source[root.span.clone()] {
            return Err(InjectError::NoOp);
        }
        let before = &self.source[root.text.start..root.span.start];
        let after = &self.source[root.span.end..root.text.end];
        let mut new_line = String::with_capacity(before.len() + scratch.len() + after.len());
        new_line.push_str(before);
        new_line.push_str(scratch);
        new_line.push_str(after);
        Ok(LineEdit {
            line_no: root.line_no,
            old_line: Arc::clone(&root.old_line),
            new_line,
        })
    }
}

/// Finds the first differing line between two renderings.
/// Returns `(1-based line, golden line, buggy line)`. The test oracle for
/// the spliced edits of [`apply`] and [`crate::candidates`].
pub fn first_diff_line(golden: &str, buggy: &str) -> Option<(u32, String, String)> {
    for (i, (g, b)) in golden.lines().zip(buggy.lines()).enumerate() {
        if g != b {
            return Some((i as u32 + 1, g.trim().to_string(), b.trim().to_string()));
        }
    }
    None
}

/// Fills in the `direct` classification given the assertions of the golden
/// module: a bug is *Direct* when a signal assigned by the mutated
/// statement (or, for condition bugs, a signal in the mutated expression)
/// appears among the signals the assertions observe.
pub fn classify_direct(design: &Design, mutation: &Mutation) -> Option<bool> {
    let mut observed: BTreeSet<String> = BTreeSet::new();
    for p in design.module.properties() {
        observed.extend(p.body.idents());
    }
    for a in design.module.assertions() {
        if let AssertTarget::Inline(p) = &a.target {
            observed.extend(p.body.idents());
        }
    }
    if observed.is_empty() {
        return None;
    }
    Some(mutation.assigned.iter().any(|s| observed.contains(s)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_verilog::compile;

    const SRC: &str = "module m(input clk, input rst_n, input en, input [3:0] a,\n\
        input [3:0] b, output reg [3:0] y, output reg ok);\n\
        wire g;\n\
        assign g = en & a[0];\n\
        always @(posedge clk or negedge rst_n) begin\n\
          if (!rst_n) y <= 4'd0;\n\
          else if (g) y <= a + b;\n\
          else y <= b;\n\
        end\n\
        always @(posedge clk or negedge rst_n) begin\n\
          if (!rst_n) ok <= 1'b0;\n\
          else ok <= y != 4'd0;\n\
        end\n\
        property p; @(posedge clk) disable iff (!rst_n) g |-> ##1 y == $past(a) + $past(b); endproperty\n\
        chk: assert property (p) else $error(\"sum wrong\");\nendmodule";

    fn design() -> Design {
        compile(SRC).unwrap_or_else(|e| panic!("compile: {e}"))
    }

    #[test]
    fn enumerates_all_syntactic_kinds() {
        let d = design();
        let muts = enumerate(&d);
        assert!(muts.len() > 10, "got {}", muts.len());
        for kind in [SyntacticKind::Op, SyntacticKind::Value, SyntacticKind::Var] {
            assert!(
                muts.iter().any(|m| m.class.syntactic == kind),
                "missing {kind}"
            );
        }
        assert!(muts.iter().any(|m| m.class.cond));
        assert!(muts.iter().any(|m| !m.class.cond));
    }

    #[test]
    fn apply_changes_exactly_one_line() {
        let d = design();
        for m in enumerate(&d) {
            let inj = match apply(&d, &m) {
                Ok(i) => i,
                Err(InjectError::NoOp) => continue,
                Err(e) => panic!("apply failed: {e}"),
            };
            assert_ne!(inj.buggy_line, inj.fixed_line);
            // The buggy source must re-parse and re-elaborate or be caught
            // downstream; at minimum it must re-parse.
            asv_verilog::parse(&inj.buggy_source).expect("buggy source parses");
        }
    }

    #[test]
    fn mutations_are_deterministic() {
        let d = design();
        assert_eq!(enumerate(&d), enumerate(&d));
    }

    #[test]
    fn ident_swaps_respect_width_and_special_signals() {
        let d = design();
        for m in enumerate(&d) {
            if let Edit::SetIdent(n) = &m.edit {
                assert_ne!(n, "clk");
                assert_ne!(n, "rst_n");
            }
        }
    }

    #[test]
    fn direct_classification_uses_assertion_signals() {
        let d = design();
        let muts = enumerate(&d);
        // A mutation on the `y <= a + b` statement assigns y, which the
        // property observes -> Direct.
        let on_y = muts
            .iter()
            .find(|m| m.assigned[..] == ["y"] && matches!(m.edit, Edit::SwapBinOp(_)))
            .expect("mutation on y's add");
        assert_eq!(classify_direct(&d, on_y), Some(true));
        // A mutation on `ok <= y != 0` assigns ok, not observed -> Indirect.
        let on_ok = muts
            .iter()
            .find(|m| m.assigned[..] == ["ok"])
            .expect("mutation on ok");
        assert_eq!(classify_direct(&d, on_ok), Some(false));
    }

    #[test]
    fn negate_edit_reproduces_fig1_bug() {
        let d = design();
        let muts = enumerate(&d);
        let neg_g = muts
            .iter()
            .find(|m| {
                matches!(m.edit, Edit::Negate)
                    && m.class.cond
                    && m.assigned.iter().any(|s| s == "y")
            })
            .expect("condition negation on g");
        let inj = apply(&d, neg_g).expect("apply");
        assert!(inj.buggy_line.contains("!"), "got: {}", inj.buggy_line);
    }

    #[test]
    fn stale_site_is_reported() {
        let d = design();
        let mut m = enumerate(&d)[0].clone();
        m.site_id = 99_999;
        assert_eq!(apply(&d, &m), Err(InjectError::StaleSite(99_999)));
    }

    #[test]
    fn first_diff_line_finds_change() {
        let a = "one\ntwo\nthree";
        let b = "one\ntwo!\nthree";
        assert_eq!(
            first_diff_line(a, b),
            Some((2, "two".into(), "two!".into()))
        );
        assert_eq!(first_diff_line(a, a), None);
    }
}
