//! Pretty-printer: renders an AST back to canonical Verilog source.
//!
//! The mutation pipeline relies on a *stable* rendering: injecting a bug and
//! re-rendering changes exactly the mutated statement's line, so the golden
//! "buggy line / fixed line" pair used for training and evaluation is
//! well-defined. Round-tripping (`parse ∘ render ∘ parse`) is validated by
//! property tests in the crate root.
//!
//! # Slot roots and splicing
//!
//! The design-logic expressions sit in *slot roots*: the right-hand side of
//! a continuous or procedural assignment, an `if` condition, a `case`
//! scrutinee and a case label, in continuous assigns and `always` bodies.
//! The printer renders every slot root with [`render_expr`] at precedence
//! 0, on one line, and nothing around a root depends on its text. So
//! replacing a root's bytes in the module rendering with `render_expr` of
//! a new root gives exactly `render_module` of the module with that root
//! replaced. [`render_module_slots`] renders a module once and returns
//! where each slot root landed, which lets the repair-candidate enumeration
//! build every single-site edit from its own line instead of re-rendering
//! the design. [`render_module`] records nothing. It renders whole designs
//! for the repair pipeline; verification job keys hash the AST instead,
//! which needs no rendering (see [`crate::ast`]).

use crate::ast::*;
use std::fmt::Write;
use std::ops::Range;

/// Renders a full source unit.
pub fn render_unit(unit: &SourceUnit) -> String {
    let mut out = String::new();
    for (i, m) in unit.modules.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&render_module(m));
    }
    out
}

/// Renders one module with 2-space indentation.
pub fn render_module(m: &Module) -> String {
    let mut p = Printer::new();
    p.module(m);
    p.out
}

/// Renders one module exactly as [`render_module`] does and returns the
/// byte range of every slot root in the rendering (see the module docs):
/// the roots of continuous assigns and `always` bodies, in source order,
/// which is the order of a pre-order walk of the items and statements.
/// Roots in `initial` blocks, parameters, properties and assertions are not
/// recorded.
pub fn render_module_slots(m: &Module) -> (String, Vec<Range<usize>>) {
    let mut p = Printer::new();
    p.slots = Some(Vec::new());
    p.module(m);
    (p.out, p.slots.unwrap_or_default())
}

/// Renders a single expression (used in diffs, CoT text and candidate fixes).
pub fn render_expr(e: &Expr) -> String {
    let mut s = String::new();
    write_expr(&mut s, e);
    s
}

/// Appends [`render_expr`] of `e` to `out`.
pub fn write_expr(out: &mut String, e: &Expr) {
    expr(out, e, 0);
}

/// Renders a single statement at indent level 0, without a trailing newline.
pub fn render_stmt(s: &Stmt) -> String {
    let mut p = Printer::new();
    p.stmt(s, 0);
    p.out.trim_end().to_string()
}

/// Renders an lvalue.
pub fn render_lvalue(lv: &LValue) -> String {
    match lv {
        LValue::Ident { name, .. } => name.clone(),
        LValue::Bit { name, index, .. } => format!("{name}[{}]", render_expr(index)),
        LValue::Part { name, range, .. } => format!("{name}{range}"),
        LValue::Concat { parts, .. } => {
            let inner: Vec<String> = parts.iter().map(render_lvalue).collect();
            format!("{{{}}}", inner.join(", "))
        }
    }
}

struct Printer {
    out: String,
    /// Byte ranges of the slot roots rendered so far, when recording.
    slots: Option<Vec<Range<usize>>>,
}

impl Printer {
    fn new() -> Self {
        Printer {
            out: String::new(),
            slots: None,
        }
    }

    /// Renders a slot root at precedence 0 and records its byte range.
    fn root(&mut self, e: &Expr) {
        let start = self.out.len();
        expr(&mut self.out, e, 0);
        if let Some(slots) = &mut self.slots {
            slots.push(start..self.out.len());
        }
    }

    /// Renders `lhs op rhs;` and the newline.
    fn assign(&mut self, lhs: &LValue, rhs: &Expr, nonblocking: bool) {
        self.out.push_str(&render_lvalue(lhs));
        self.out.push_str(if nonblocking { " <= " } else { " = " });
        self.root(rhs);
        self.out.push_str(";\n");
    }

    fn indent(&mut self, level: usize) {
        for _ in 0..level {
            self.out.push_str("  ");
        }
    }

    fn module(&mut self, m: &Module) {
        let params: Vec<&ParamDecl> = m
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Param(p) if !p.local => Some(p),
                _ => None,
            })
            .collect();
        write!(self.out, "module {}", m.name).expect("write to string");
        if !params.is_empty() {
            self.out.push_str(" #(\n");
            for (i, p) in params.iter().enumerate() {
                self.indent(1);
                write!(self.out, "parameter {} = {}", p.name, render_expr(&p.value))
                    .expect("write to string");
                if i + 1 < params.len() {
                    self.out.push(',');
                }
                self.out.push('\n');
            }
            self.out.push(')');
        }
        self.out.push_str(" (\n");
        for (i, port) in m.ports.iter().enumerate() {
            self.indent(1);
            write!(self.out, "{}", port.dir).expect("write to string");
            if port.kind == NetKind::Reg {
                self.out.push_str(" reg");
            } else if port.kind == NetKind::Logic {
                self.out.push_str(" logic");
            }
            if let Some(r) = port.range {
                write!(self.out, " {r}").expect("write to string");
            }
            write!(self.out, " {}", port.name).expect("write to string");
            if i + 1 < m.ports.len() {
                self.out.push(',');
            }
            self.out.push('\n');
        }
        self.out.push_str(");\n");
        for item in &m.items {
            if matches!(item, Item::Param(p) if !p.local) {
                continue; // already rendered in the header
            }
            self.item(item);
        }
        self.out.push_str("endmodule\n");
    }

    fn item(&mut self, item: &Item) {
        match item {
            Item::Net(n) => {
                self.indent(1);
                write!(self.out, "{}", n.kind).expect("write to string");
                if n.kind != NetKind::Integer {
                    if let Some(r) = n.range {
                        write!(self.out, " {r}").expect("write to string");
                    }
                }
                writeln!(self.out, " {};", n.names.join(", ")).expect("write to string");
            }
            Item::Param(p) => {
                self.indent(1);
                writeln!(
                    self.out,
                    "localparam {} = {};",
                    p.name,
                    render_expr(&p.value)
                )
                .expect("write to string");
            }
            Item::Assign(a) => {
                self.indent(1);
                self.out.push_str("assign ");
                self.assign(&a.lhs, &a.rhs, false);
            }
            Item::Always(a) => {
                self.indent(1);
                let kw = match a.kind {
                    AlwaysKind::Always => "always",
                    AlwaysKind::Ff => "always_ff",
                    AlwaysKind::Comb => "always_comb",
                };
                self.out.push_str(kw);
                if a.kind != AlwaysKind::Comb {
                    match &a.sensitivity {
                        Sensitivity::Star => self.out.push_str(" @(*)"),
                        Sensitivity::List(items) => {
                            self.out.push_str(" @(");
                            for (i, s) in items.iter().enumerate() {
                                if i > 0 {
                                    self.out.push_str(" or ");
                                }
                                match s {
                                    SensItem::Posedge(sig) => {
                                        write!(self.out, "posedge {sig}").expect("write")
                                    }
                                    SensItem::Negedge(sig) => {
                                        write!(self.out, "negedge {sig}").expect("write")
                                    }
                                    SensItem::Level(sig) => {
                                        write!(self.out, "{sig}").expect("write")
                                    }
                                }
                            }
                            self.out.push(')');
                        }
                    }
                }
                self.out.push(' ');
                self.stmt_inline(&a.body, 1);
            }
            Item::Initial(i) => {
                self.indent(1);
                self.out.push_str("initial ");
                // Initial blocks hold no slot roots.
                let slots = self.slots.take();
                self.stmt_inline(&i.body, 1);
                self.slots = slots;
            }
            Item::Property(p) => {
                self.indent(1);
                writeln!(self.out, "property {};", p.name).expect("write to string");
                self.indent(2);
                write!(
                    self.out,
                    "@({} {})",
                    if p.clock.posedge {
                        "posedge"
                    } else {
                        "negedge"
                    },
                    p.clock.signal
                )
                .expect("write to string");
                if let Some(d) = &p.disable {
                    write!(self.out, " disable iff ({})", render_expr(d)).expect("write");
                }
                self.out.push('\n');
                self.indent(2);
                writeln!(self.out, "{};", render_prop(&p.body)).expect("write to string");
                self.indent(1);
                self.out.push_str("endproperty\n");
            }
            Item::Assert(a) => {
                self.indent(1);
                if let Some(l) = &a.label {
                    write!(self.out, "{l}: ").expect("write to string");
                }
                match &a.target {
                    AssertTarget::Named(n) => {
                        write!(self.out, "assert property ({n})").expect("write to string")
                    }
                    AssertTarget::Inline(p) => {
                        write!(
                            self.out,
                            "assert property (@({} {})",
                            if p.clock.posedge {
                                "posedge"
                            } else {
                                "negedge"
                            },
                            p.clock.signal
                        )
                        .expect("write to string");
                        if let Some(d) = &p.disable {
                            write!(self.out, " disable iff ({})", render_expr(d))
                                .expect("write to string");
                        }
                        write!(self.out, " {})", render_prop(&p.body)).expect("write to string");
                    }
                }
                if let Some(msg) = &a.message {
                    self.out.push_str(" else $error(\"");
                    push_escaped(&mut self.out, msg);
                    self.out.push_str("\")");
                }
                self.out.push_str(";\n");
            }
        }
    }

    /// Prints a statement as the body of `always`/`initial`/`if` where the
    /// keyword and a space have already been emitted.
    fn stmt_inline(&mut self, s: &Stmt, level: usize) {
        match s {
            Stmt::Block { stmts, .. } => {
                self.out.push_str("begin\n");
                for st in stmts {
                    self.stmt(st, level + 1);
                }
                self.indent(level);
                self.out.push_str("end\n");
            }
            other => {
                self.out.push('\n');
                self.stmt(other, level + 1);
            }
        }
    }

    fn stmt(&mut self, s: &Stmt, level: usize) {
        match s {
            Stmt::Block { stmts, .. } => {
                self.indent(level);
                self.out.push_str("begin\n");
                for st in stmts {
                    self.stmt(st, level + 1);
                }
                self.indent(level);
                self.out.push_str("end\n");
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                self.indent(level);
                self.if_stmt(cond, then_branch, else_branch.as_deref(), level);
            }
            Stmt::Case {
                kind,
                scrutinee,
                arms,
                default,
                ..
            } => {
                self.indent(level);
                self.out.push_str(match kind {
                    CaseKind::Case => "case (",
                    CaseKind::Casez => "casez (",
                    CaseKind::Casex => "casex (",
                });
                self.root(scrutinee);
                self.out.push_str(")\n");
                for arm in arms {
                    self.indent(level + 1);
                    for (i, label) in arm.labels.iter().enumerate() {
                        if i > 0 {
                            self.out.push_str(", ");
                        }
                        self.root(label);
                    }
                    self.out.push_str(": ");
                    self.branch_body(&arm.body, level + 1);
                }
                if let Some(d) = default {
                    self.indent(level + 1);
                    self.out.push_str("default: ");
                    self.branch_body(d, level + 1);
                }
                self.indent(level);
                self.out.push_str("endcase\n");
            }
            Stmt::Assign {
                lhs,
                rhs,
                nonblocking,
                ..
            } => {
                self.indent(level);
                self.assign(lhs, rhs, *nonblocking);
            }
            Stmt::Empty { .. } => {
                self.indent(level);
                self.out.push_str(";\n");
            }
        }
    }

    /// Prints an `if` statement, its indentation already emitted. An `else
    /// if` continues on the `else` line, so a chain reads as one construct.
    fn if_stmt(
        &mut self,
        cond: &Expr,
        then_branch: &Stmt,
        else_branch: Option<&Stmt>,
        level: usize,
    ) {
        self.out.push_str("if (");
        self.root(cond);
        self.out.push_str(") ");
        self.branch_body(then_branch, level);
        if let Some(e) = else_branch {
            self.indent(level);
            self.out.push_str("else ");
            match e {
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    ..
                } => self.if_stmt(cond, then_branch, else_branch.as_deref(), level),
                other => self.branch_body(other, level),
            }
        }
    }

    /// Prints the body of an if-arm or case-arm, keyword already emitted.
    fn branch_body(&mut self, s: &Stmt, level: usize) {
        match s {
            Stmt::Block { stmts, .. } => {
                self.out.push_str("begin\n");
                for st in stmts {
                    self.stmt(st, level + 1);
                }
                self.indent(level);
                self.out.push_str("end\n");
            }
            Stmt::Assign {
                lhs,
                rhs,
                nonblocking,
                ..
            } => self.assign(lhs, rhs, *nonblocking),
            Stmt::Empty { .. } => self.out.push_str(";\n"),
            other => {
                self.out.push('\n');
                self.stmt(other, level + 1);
            }
        }
    }
}

/// Renders a property body.
pub fn render_prop(p: &PropExpr) -> String {
    match p {
        PropExpr::Seq(s) => render_seq(s),
        PropExpr::Implication {
            antecedent,
            overlapping,
            consequent,
            ..
        } => format!(
            "{} {} {}",
            render_seq(antecedent),
            if *overlapping { "|->" } else { "|=>" },
            render_seq(consequent)
        ),
    }
}

/// Renders a sequence expression.
pub fn render_seq(s: &SeqExpr) -> String {
    match s {
        SeqExpr::Expr(e) => render_expr(e),
        SeqExpr::Delay {
            lhs, cycles, rhs, ..
        } => {
            // `1 ##n rhs` (synthesised anchor) renders as a leading delay.
            if let SeqExpr::Expr(Expr::Number {
                value: 1,
                width: Some(1),
                ..
            }) = **lhs
            {
                format!("##{cycles} {}", render_seq(rhs))
            } else {
                format!("{} ##{cycles} {}", render_seq(lhs), render_seq(rhs))
            }
        }
    }
}

/// Appends `text` as the body of a string literal: the inverse of the
/// lexer's escapes, so a message survives render and re-parse unchanged.
fn push_escaped(out: &mut String, text: &str) {
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
}

fn expr(out: &mut String, e: &Expr, parent_prec: u8) {
    match e {
        Expr::Number {
            value, width, base, ..
        } => match (width, base) {
            (Some(w), Some('b')) => {
                let _ = write!(out, "{w}'b{value:b}");
            }
            (Some(w), Some('h')) => {
                let _ = write!(out, "{w}'h{value:x}");
            }
            (Some(w), Some('o')) => {
                let _ = write!(out, "{w}'o{value:o}");
            }
            (Some(w), _) => {
                let _ = write!(out, "{w}'d{value}");
            }
            (None, _) => {
                let _ = write!(out, "{value}");
            }
        },
        Expr::Ident { name, .. } => out.push_str(name),
        Expr::Unary { op, operand, .. } => {
            out.push_str(op.as_str());
            // Parenthesise non-primary operands for unambiguous reading.
            match **operand {
                Expr::Number { .. } | Expr::Ident { .. } | Expr::Bit { .. } | Expr::Part { .. } => {
                    expr(out, operand, 13)
                }
                _ => {
                    out.push('(');
                    expr(out, operand, 0);
                    out.push(')');
                }
            }
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let prec = op.precedence();
            let need_parens = prec < parent_prec;
            if need_parens {
                out.push('(');
            }
            expr(out, lhs, prec);
            let _ = write!(out, " {} ", op.as_str());
            expr(out, rhs, prec + 1);
            if need_parens {
                out.push(')');
            }
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => {
            let need_parens = parent_prec > 0;
            if need_parens {
                out.push('(');
            }
            expr(out, cond, 1);
            out.push_str(" ? ");
            expr(out, then_expr, 0);
            out.push_str(" : ");
            expr(out, else_expr, 0);
            if need_parens {
                out.push(')');
            }
        }
        Expr::Concat { parts, .. } => {
            out.push('{');
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                expr(out, p, 0);
            }
            out.push('}');
        }
        Expr::Repeat { count, value, .. } => {
            out.push('{');
            expr(out, count, 13);
            out.push('{');
            expr(out, value, 0);
            out.push_str("}}");
        }
        Expr::Bit { name, index, .. } => {
            out.push_str(name);
            out.push('[');
            expr(out, index, 0);
            out.push(']');
        }
        Expr::Part { name, range, .. } => {
            let _ = write!(out, "{name}{range}");
        }
        Expr::SysCall { name, args, .. } => {
            let _ = write!(out, "${name}");
            if !args.is_empty() {
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    expr(out, a, 0);
                }
                out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn roundtrip(src: &str) {
        let unit = parse(src).expect("initial parse");
        let rendered = render_unit(&unit);
        let reparsed = parse(&rendered)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- rendered ---\n{rendered}"));
        let rerendered = render_unit(&reparsed);
        assert_eq!(rendered, rerendered, "render is not a fixpoint");
    }

    #[test]
    fn roundtrips_simple_module() {
        roundtrip("module m(input a, input b, output y); assign y = a & b; endmodule");
    }

    #[test]
    fn roundtrips_sequential_logic() {
        roundtrip(
            "module c(input clk, input rst_n, output reg [3:0] q);\n\
             always @(posedge clk or negedge rst_n) begin\n\
               if (!rst_n) q <= 4'd0; else q <= q + 4'd1;\n\
             end\nendmodule",
        );
    }

    #[test]
    fn roundtrips_property() {
        roundtrip(
            "module m(input clk, input rst_n, input a, output reg b);\n\
             always @(posedge clk) b <= a;\n\
             property p; @(posedge clk) disable iff (!rst_n) a |-> ##1 b; endproperty\n\
             lab: assert property (p) else $error(\"b must follow a\");\nendmodule",
        );
    }

    #[test]
    fn roundtrips_case() {
        roundtrip(
            "module m(input [1:0] s, output reg [3:0] y);\n\
             always @(*) begin case (s) 2'd0: y = 4'd1; 2'd1: y = 4'd2; default: y = 4'd0; endcase end\n\
             endmodule",
        );
    }

    #[test]
    fn parenthesisation_preserves_shape() {
        let unit = parse(
            "module m(input a, input b, input c, output y); assign y = (a | b) & c; endmodule",
        )
        .expect("parse ok");
        let s = render_module(&unit.modules[0]);
        assert!(s.contains("(a | b) & c"), "got: {s}");
    }

    #[test]
    fn number_bases_preserved() {
        let unit = parse("module m(output [7:0] y); assign y = 8'hab + 4'b1010; endmodule")
            .expect("parse ok");
        let s = render_module(&unit.modules[0]);
        assert!(s.contains("8'hab"), "got: {s}");
        assert!(s.contains("4'b1010"), "got: {s}");
    }

    #[test]
    fn else_if_chains_are_flat() {
        let src = "module m(input clk, input a, input b, output reg y);\n\
            always @(posedge clk) begin\n\
              if (a) y <= 1; else if (b) y <= 0; else y <= y;\n\
            end\nendmodule";
        let unit = parse(src).expect("parse ok");
        let s = render_module(&unit.modules[0]);
        assert!(s.contains("else if (b)"), "got: {s}");
        roundtrip(src);
    }

    #[test]
    fn assertion_messages_survive_render_and_parse() {
        // `\"`, `\\`, `\n` and `\t` are escaped in the source; UTF-8 text
        // passes through as is.
        let src = "module m(input clk, input a);\n\
            chk: assert property (@(posedge clk) a)\n\
              else $error(\"café → \\\"ok\\\" \\\\ done\\n\\tnext\");\nendmodule";
        let message = |src: &str| {
            let design = crate::compile(src).expect("compiles");
            let assertion = design.module.assertions().next().expect("one assertion");
            assertion.message.clone().expect("has a message")
        };
        let expected = "café → \"ok\" \\ done\n\tnext";
        assert_eq!(message(src), expected);
        let once = render_unit(&parse(src).expect("parse"));
        assert_eq!(message(&once), expected);
        let twice = render_unit(&parse(&once).expect("reparse"));
        assert_eq!(twice, once, "render is not a fixpoint");
    }

    #[test]
    fn renders_stmt_single_line_for_assign() {
        let unit = parse(
            "module m(input clk, input a, output reg y); always @(posedge clk) y <= a; endmodule",
        )
        .expect("parse ok");
        let Item::Always(al) = &unit.modules[0].items[0] else {
            panic!()
        };
        assert_eq!(render_stmt(&al.body), "y <= a;");
    }
}
