//! Semantic analysis ("elaboration"): the compile step of the pipeline.
//!
//! This is the stand-in for Icarus Verilog in the paper's Stage-1 syntax
//! check and the Stage-2 validation loops: it either accepts a module and
//! produces an elaborated [`Design`] the simulator can execute, or rejects
//! it with diagnostics that the datagen pipeline records as "compiler
//! analysis" text.

use crate::ast::*;
use crate::error::{CompileError, Diagnostic, Result};
use crate::source::Span;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// How a signal is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DriverKind {
    /// Module input port — driven by the environment.
    Input,
    /// Continuous `assign`.
    Continuous,
    /// Combinational always block (`@*` or all-level sensitivity).
    Combinational,
    /// Clocked always block.
    Sequential,
    /// Never driven (floating).
    None,
}

/// Elaborated information about one signal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignalInfo {
    /// Signal name.
    pub name: String,
    /// Bit width.
    pub width: u32,
    /// Declared net kind.
    pub kind: NetKind,
    /// How it is driven.
    pub driver: DriverKind,
    /// True for ports.
    pub is_port: bool,
    /// Port direction if a port.
    pub dir: Option<PortDir>,
}

/// An elaborated design: the validated module plus its symbol table.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    /// The (validated) module AST.
    pub module: Module,
    /// Signals by name, in deterministic order.
    pub signals: BTreeMap<String, SignalInfo>,
    /// Parameter values resolved to constants.
    pub params: BTreeMap<String, u64>,
    /// Warnings that did not block elaboration.
    pub warnings: Vec<Diagnostic>,
}

impl Design {
    /// Width of a signal, defaulting to 1 for parameters used as values.
    pub fn width_of(&self, name: &str) -> Option<u32> {
        self.signals.get(name).map(|s| s.width)
    }

    /// Names of all input ports, in port order.
    pub fn inputs(&self) -> Vec<&SignalInfo> {
        self.module
            .ports
            .iter()
            .filter(|p| p.dir == PortDir::Input)
            .filter_map(|p| self.signals.get(&p.name))
            .collect()
    }

    /// A copy of this design keeping only the `index`-th assertion
    /// directive (in [`Module::assertions`] order); every other item —
    /// logic, declarations, named properties — is untouched, so the
    /// compiled form and signal table are identical and the per-assertion
    /// design shares the whole design's compile-cache entry layout.
    ///
    /// This is the splitting primitive of incremental re-verification:
    /// `asv-eval` verifies one job per assertion, so a candidate patch
    /// re-runs only the assertions whose cone the patch can reach (the
    /// others are answered from cone-keyed store entries).
    ///
    /// `None` when `index` is out of range.
    pub fn with_single_assertion(&self, index: usize) -> Option<Design> {
        if index >= self.module.assertions().count() {
            return None;
        }
        let mut design = self.clone();
        let mut seen = 0usize;
        design.module.items.retain(|item| match item {
            Item::Assert(_) => {
                let keep = seen == index;
                seen += 1;
                keep
            }
            _ => true,
        });
        Some(design)
    }

    /// Names of all output ports, in port order.
    pub fn outputs(&self) -> Vec<&SignalInfo> {
        self.module
            .ports
            .iter()
            .filter(|p| p.dir == PortDir::Output)
            .filter_map(|p| self.signals.get(&p.name))
            .collect()
    }

    /// Heuristically identifies the clock signal: a 1-bit input named
    /// `clk`/`clock`, else the signal used in `posedge` sensitivity.
    pub fn clock(&self) -> Option<&str> {
        for cand in ["clk", "clock", "clk_i"] {
            if self.signals.contains_key(cand) {
                return Some(cand);
            }
        }
        for item in &self.module.items {
            if let Item::Always(a) = item {
                if let Sensitivity::List(list) = &a.sensitivity {
                    for s in list {
                        if let SensItem::Posedge(sig) = s {
                            return self.signals.get(sig).map(|s| s.name.as_str());
                        }
                    }
                }
            }
        }
        None
    }

    /// Heuristically identifies an active-low reset (`rst_n`-style input
    /// used under `negedge` or in `!rst` guards).
    pub fn reset(&self) -> Option<(&str, bool)> {
        for (name, active_low) in [
            ("rst_n", true),
            ("rstn", true),
            ("reset_n", true),
            ("rst", false),
            ("reset", false),
        ] {
            if self.signals.contains_key(name) {
                return Some((self.signals.get(name).map(|s| s.name.as_str())?, active_low));
            }
        }
        None
    }
}

/// Elaborates the first module of a source unit, which the returned
/// [`Design`] takes over without a copy.
///
/// # Errors
///
/// Rejects designs with undeclared identifiers, conflicting drivers,
/// `assign` to a `reg`, procedural writes to a `wire`, width-zero signals,
/// unresolvable parameters, or assertions referencing unknown signals.
pub fn elaborate(unit: SourceUnit) -> Result<Design> {
    let module = unit
        .modules
        .into_iter()
        .next()
        .ok_or_else(|| CompileError::single("empty source unit", Span::point(0)))?;
    let mut elab = Elaborator::default();
    elab.run(&module);
    if !elab.errors.is_empty() {
        let mut diagnostics = elab.errors;
        diagnostics.extend(elab.warnings);
        return Err(CompileError { diagnostics });
    }
    Ok(Design {
        module,
        signals: elab.signals,
        params: elab.params,
        warnings: elab.warnings,
    })
}

/// Convenience: parse then elaborate.
///
/// # Errors
///
/// Propagates both syntax and semantic diagnostics.
pub fn compile(src: &str) -> Result<Design> {
    elaborate(crate::parser::parse(src)?)
}

/// The symbol tables and diagnostics built while elaborating; every pass
/// borrows the module.
#[derive(Default)]
struct Elaborator {
    signals: BTreeMap<String, SignalInfo>,
    params: BTreeMap<String, u64>,
    errors: Vec<Diagnostic>,
    warnings: Vec<Diagnostic>,
}

/// System functions the front end accepts in expressions.
fn is_supported_sys_fn(name: &str) -> bool {
    matches!(
        name,
        "past"
            | "rose"
            | "fell"
            | "stable"
            | "countones"
            | "onehot"
            | "onehot0"
            | "signed"
            | "unsigned"
    )
}

impl Elaborator {
    fn run(&mut self, module: &Module) {
        self.collect_params(module);
        self.collect_signals(module);
        self.check_drivers(module);
        self.check_references(module);
        self.check_assertions(module);
    }

    /// Whether `name` is a declared signal or parameter.
    fn is_declared(&self, name: &str) -> bool {
        self.signals.contains_key(name) || self.params.contains_key(name)
    }

    fn err(&mut self, msg: impl Into<String>, span: Span) {
        self.errors.push(Diagnostic::error(msg, span));
    }

    fn collect_params(&mut self, module: &Module) {
        for item in &module.items {
            if let Item::Param(p) = item {
                match const_eval(&p.value, &self.params) {
                    Some(v) => {
                        if self.params.insert(p.name.clone(), v).is_some() {
                            self.err(format!("duplicate parameter `{}`", p.name), p.span);
                        }
                    }
                    None => self.err(
                        format!("parameter `{}` is not a constant expression", p.name),
                        p.span,
                    ),
                }
            }
        }
    }

    fn collect_signals(&mut self, module: &Module) {
        for p in &module.ports {
            let width = p.width();
            if width == 0 || width > 64 {
                self.err(
                    format!("port `{}` width {width} outside supported 1..=64", p.name),
                    p.span,
                );
            }
            let dup = self
                .signals
                .insert(
                    p.name.clone(),
                    SignalInfo {
                        name: p.name.clone(),
                        width: width.clamp(1, 64),
                        kind: p.kind,
                        driver: if p.dir == PortDir::Input {
                            DriverKind::Input
                        } else {
                            DriverKind::None
                        },
                        is_port: true,
                        dir: Some(p.dir),
                    },
                )
                .is_some();
            if dup {
                self.err(format!("duplicate port `{}`", p.name), p.span);
            }
        }
        for item in &module.items {
            if let Item::Net(n) = item {
                let width = n.width();
                if width == 0 || width > 64 {
                    self.err(
                        format!("net width {width} outside supported 1..=64"),
                        n.span,
                    );
                }
                for name in &n.names {
                    if let Some(existing) = self.signals.get_mut(name) {
                        // Redeclaration of a port with a body net decl:
                        // merge kind/width (common `output reg` idiom).
                        if existing.is_port {
                            existing.kind = n.kind;
                            if n.range.is_some() {
                                existing.width = width.clamp(1, 64);
                            }
                        } else {
                            self.err(format!("duplicate declaration of `{name}`"), n.span);
                        }
                    } else {
                        self.signals.insert(
                            name.clone(),
                            SignalInfo {
                                name: name.clone(),
                                width: width.clamp(1, 64),
                                kind: n.kind,
                                driver: DriverKind::None,
                                is_port: false,
                                dir: None,
                            },
                        );
                    }
                }
            }
        }
    }

    fn check_drivers(&mut self, module: &Module) {
        for item in &module.items {
            match item {
                Item::Assign(a) => {
                    for name in a.lhs.target_names() {
                        self.record_driver(name, DriverKind::Continuous, a.span);
                    }
                }
                Item::Always(al) => {
                    let kind = if al.sensitivity.is_combinational() {
                        DriverKind::Combinational
                    } else {
                        DriverKind::Sequential
                    };
                    let mut targets = Vec::new();
                    collect_stmt_targets(&al.body, &mut targets);
                    for (name, span) in targets {
                        self.record_driver(name, kind, span);
                    }
                    self.check_sensitivity(al);
                }
                Item::Initial(_) => {}
                _ => {}
            }
        }
        // Floating non-port signals are warnings (dead nets are common in
        // scraped corpora and the paper keeps such code for pretraining).
        for s in self.signals.values() {
            if s.driver == DriverKind::None && !matches!(s.dir, Some(PortDir::Input)) {
                self.warnings.push(Diagnostic::warning(
                    format!("signal `{}` is never driven", s.name),
                    Span::point(0),
                ));
            }
        }
    }

    fn record_driver(&mut self, name: &str, kind: DriverKind, span: Span) {
        let Some(sig) = self.signals.get_mut(name) else {
            self.err(format!("assignment to undeclared signal `{name}`"), span);
            return;
        };
        if sig.dir == Some(PortDir::Input) {
            self.err(format!("cannot drive input port `{name}`"), span);
            return;
        }
        let (driver, net_kind) = (sig.driver, sig.kind);
        if driver == DriverKind::None {
            sig.driver = kind;
        } else if driver != kind {
            self.err(
                format!("signal `{name}` has conflicting drivers ({driver:?} and {kind:?})"),
                span,
            );
        }
        // Net-kind compatibility.
        match (net_kind, kind) {
            (NetKind::Wire, DriverKind::Combinational | DriverKind::Sequential) => self.err(
                format!("procedural assignment to wire `{name}` (declare it reg)"),
                span,
            ),
            (NetKind::Reg | NetKind::Integer, DriverKind::Continuous) => self.err(
                format!("continuous assignment to reg `{name}` (use wire or always)"),
                span,
            ),
            _ => {}
        }
    }

    fn check_sensitivity(&mut self, al: &AlwaysBlock) {
        if let Sensitivity::List(list) = &al.sensitivity {
            for item in list {
                let sig = item.signal();
                if !self.signals.contains_key(sig) {
                    self.err(
                        format!("sensitivity list references undeclared signal `{sig}`"),
                        al.span,
                    );
                }
            }
            let has_edge = list
                .iter()
                .any(|i| matches!(i, SensItem::Posedge(_) | SensItem::Negedge(_)));
            let has_level = list.iter().any(|i| matches!(i, SensItem::Level(_)));
            if has_edge && has_level {
                self.err(
                    "mixed edge and level sensitivity is not supported".to_string(),
                    al.span,
                );
            }
        }
    }

    fn check_references(&mut self, module: &Module) {
        for item in &module.items {
            match item {
                Item::Assign(a) => self.check_expr(&a.rhs),
                Item::Always(al) => self.check_stmt(&al.body),
                Item::Initial(i) => self.check_stmt(&i.body),
                _ => {}
            }
        }
    }

    fn check_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Block { stmts, .. } => {
                for st in stmts {
                    self.check_stmt(st);
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                self.check_expr(cond);
                self.check_stmt(then_branch);
                if let Some(e) = else_branch {
                    self.check_stmt(e);
                }
            }
            Stmt::Case {
                scrutinee,
                arms,
                default,
                ..
            } => {
                self.check_expr(scrutinee);
                for arm in arms {
                    for l in &arm.labels {
                        self.check_expr(l);
                    }
                    self.check_stmt(&arm.body);
                }
                if let Some(d) = default {
                    self.check_stmt(d);
                }
            }
            Stmt::Assign { rhs, .. } => self.check_expr(rhs),
            Stmt::Empty { .. } => {}
        }
    }

    /// Whether every identifier in `e` is declared and every system
    /// function is supported: one walk that allocates nothing.
    fn expr_is_clean(&self, e: &Expr) -> bool {
        match e {
            Expr::Number { .. } => true,
            Expr::Ident { name, .. } | Expr::Part { name, .. } => self.is_declared(name),
            Expr::Unary { operand, .. } => self.expr_is_clean(operand),
            Expr::Binary { lhs, rhs, .. } => self.expr_is_clean(lhs) && self.expr_is_clean(rhs),
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                self.expr_is_clean(cond)
                    && self.expr_is_clean(then_expr)
                    && self.expr_is_clean(else_expr)
            }
            Expr::Concat { parts, .. } => parts.iter().all(|p| self.expr_is_clean(p)),
            Expr::Repeat { count, value, .. } => {
                self.expr_is_clean(count) && self.expr_is_clean(value)
            }
            Expr::Bit { name, index, .. } => self.is_declared(name) && self.expr_is_clean(index),
            Expr::SysCall { name, args, .. } => {
                is_supported_sys_fn(name) && args.iter().all(|a| self.expr_is_clean(a))
            }
        }
    }

    /// Reports undeclared identifiers and unsupported system functions in
    /// `e`. An undeclared name is reported once for every expression that
    /// encloses it, with that expression's span: stage-1 datagen stores
    /// these diagnostics as pretraining text, so the list stays as it is.
    fn check_expr(&mut self, e: &Expr) {
        if self.expr_is_clean(e) {
            return;
        }
        let mut undeclared = Vec::new();
        e.for_each_ident(&mut |name| {
            if !self.is_declared(name) {
                undeclared.push(format!("undeclared identifier `{name}`"));
            }
        });
        for msg in undeclared {
            self.err(msg, e.span());
        }
        if let Expr::SysCall { name, span, .. } = e {
            if !is_supported_sys_fn(name) {
                self.err(format!("unsupported system function `${name}`"), *span);
            }
        }
        // Recurse for nested syscalls / structure not covered by idents().
        match e {
            Expr::Unary { operand, .. } => self.check_expr(operand),
            Expr::Binary { lhs, rhs, .. } => {
                self.check_expr(lhs);
                self.check_expr(rhs);
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                self.check_expr(cond);
                self.check_expr(then_expr);
                self.check_expr(else_expr);
            }
            Expr::Concat { parts, .. } => parts.iter().for_each(|p| self.check_expr(p)),
            Expr::Repeat { count, value, .. } => {
                self.check_expr(count);
                self.check_expr(value);
            }
            Expr::Bit { index, .. } => self.check_expr(index),
            Expr::SysCall { args, .. } => args.iter().for_each(|a| self.check_expr(a)),
            _ => {}
        }
    }

    fn check_assertions(&mut self, module: &Module) {
        let prop_names: BTreeSet<&str> = module.properties().map(|p| p.name.as_str()).collect();
        for a in module.assertions() {
            match &a.target {
                AssertTarget::Named(n) => {
                    if !prop_names.contains(n.as_str()) {
                        self.err(
                            format!("assertion references unknown property `{n}`"),
                            a.span,
                        );
                    }
                }
                AssertTarget::Inline(p) => self.check_property(p),
            }
        }
        for p in module.properties() {
            self.check_property(p);
        }
    }

    fn check_property(&mut self, p: &PropertyDecl) {
        if !self.signals.contains_key(&p.clock.signal) {
            self.err(
                format!("property clock `{}` is not declared", p.clock.signal),
                p.span,
            );
        }
        if let Some(d) = &p.disable {
            self.check_expr(d);
        }
        let mut undeclared = Vec::new();
        p.body.for_each_ident(&mut |name| {
            if !self.is_declared(name) {
                undeclared.push(format!("property references undeclared signal `{name}`"));
            }
        });
        for msg in undeclared {
            self.err(msg, p.span);
        }
    }
}

fn collect_stmt_targets<'m>(s: &'m Stmt, out: &mut Vec<(&'m str, Span)>) {
    match s {
        Stmt::Block { stmts, .. } => stmts.iter().for_each(|st| collect_stmt_targets(st, out)),
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            collect_stmt_targets(then_branch, out);
            if let Some(e) = else_branch {
                collect_stmt_targets(e, out);
            }
        }
        Stmt::Case { arms, default, .. } => {
            for arm in arms {
                collect_stmt_targets(&arm.body, out);
            }
            if let Some(d) = default {
                collect_stmt_targets(d, out);
            }
        }
        Stmt::Assign { lhs, span, .. } => {
            for n in lhs.target_names() {
                out.push((n, *span));
            }
        }
        Stmt::Empty { .. } => {}
    }
}

/// Evaluates a constant expression over parameter bindings.
///
/// Returns `None` for non-constant expressions.
pub fn const_eval(e: &Expr, params: &BTreeMap<String, u64>) -> Option<u64> {
    Some(match e {
        Expr::Number { value, .. } => *value,
        Expr::Ident { name, .. } => *params.get(name)?,
        Expr::Unary { op, operand, .. } => {
            let v = const_eval(operand, params)?;
            match op {
                UnaryOp::Neg => v.wrapping_neg(),
                UnaryOp::LogicNot => u64::from(v == 0),
                UnaryOp::BitNot => !v,
                UnaryOp::Plus => v,
                _ => return None,
            }
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let a = const_eval(lhs, params)?;
            let b = const_eval(rhs, params)?;
            match op {
                BinaryOp::Add => a.wrapping_add(b),
                BinaryOp::Sub => a.wrapping_sub(b),
                BinaryOp::Mul => a.wrapping_mul(b),
                BinaryOp::Div => a.checked_div(b)?,
                BinaryOp::Mod => a.checked_rem(b)?,
                BinaryOp::Pow => a.checked_pow(u32::try_from(b).ok()?)?,
                BinaryOp::Shl | BinaryOp::AShl => {
                    a.checked_shl(u32::try_from(b).ok()?).unwrap_or(0)
                }
                BinaryOp::Shr | BinaryOp::AShr => {
                    a.checked_shr(u32::try_from(b).ok()?).unwrap_or(0)
                }
                BinaryOp::BitAnd => a & b,
                BinaryOp::BitOr => a | b,
                BinaryOp::BitXor => a ^ b,
                BinaryOp::BitXnor => !(a ^ b),
                BinaryOp::LogicAnd => u64::from(a != 0 && b != 0),
                BinaryOp::LogicOr => u64::from(a != 0 || b != 0),
                BinaryOp::Eq | BinaryOp::CaseEq => u64::from(a == b),
                BinaryOp::Ne | BinaryOp::CaseNe => u64::from(a != b),
                BinaryOp::Lt => u64::from(a < b),
                BinaryOp::Le => u64::from(a <= b),
                BinaryOp::Gt => u64::from(a > b),
                BinaryOp::Ge => u64::from(a >= b),
            }
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => {
            if const_eval(cond, params)? != 0 {
                const_eval(then_expr, params)?
            } else {
                const_eval(else_expr, params)?
            }
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile_ok(src: &str) -> Design {
        compile(src).unwrap_or_else(|e| panic!("expected compile ok: {e}"))
    }

    #[test]
    fn elaborates_counter() {
        let d = compile_ok(
            "module c(input clk, input rst_n, output reg [3:0] q);\n\
             always @(posedge clk or negedge rst_n) begin\n\
               if (!rst_n) q <= 4'd0; else q <= q + 4'd1;\n\
             end\nendmodule",
        );
        assert_eq!(d.width_of("q"), Some(4));
        assert_eq!(d.clock(), Some("clk"));
        assert_eq!(d.reset(), Some(("rst_n", true)));
        assert_eq!(d.signals["q"].driver, DriverKind::Sequential);
    }

    #[test]
    fn rejects_undeclared_identifier() {
        let e = compile("module m(input a, output y); assign y = a & ghost; endmodule")
            .expect_err("should fail");
        assert!(e.primary().message.contains("ghost"));
    }

    #[test]
    fn rejects_procedural_wire_write() {
        let e = compile(
            "module m(input clk, input a, output y);\n\
             wire t;\n always @(posedge clk) t <= a;\n assign y = t; endmodule",
        )
        .expect_err("should fail");
        assert!(e.primary().message.contains("wire"), "{e}");
    }

    #[test]
    fn rejects_assign_to_reg() {
        let e =
            compile("module m(input a, output y); reg t; assign t = a; assign y = t; endmodule")
                .expect_err("should fail");
        assert!(e.primary().message.contains("reg"), "{e}");
    }

    #[test]
    fn rejects_conflicting_drivers() {
        let e = compile(
            "module m(input a, input b, output y);\n\
             assign y = a;\n assign y = b;\nendmodule",
        );
        // Two continuous drivers on the same net are the same DriverKind;
        // accept (wired-or is legal verilog) — but reg driven both ways must fail.
        let e2 = compile(
            "module m(input clk, input a, output reg y);\n\
             always @(posedge clk) y <= a;\n always @(*) y = ~a;\nendmodule",
        )
        .expect_err("mixed drivers should fail");
        assert!(e2.primary().message.contains("conflicting"), "{e2}");
        drop(e);
    }

    #[test]
    fn rejects_driving_input() {
        let e = compile("module m(input a, output y); assign a = 1'b0; assign y = a; endmodule")
            .expect_err("should fail");
        assert!(e.primary().message.contains("input"), "{e}");
    }

    #[test]
    fn resolves_parameters() {
        let d = compile_ok(
            "module m #(parameter W = 3)(input [7:0] a, output [7:0] y);\n\
             localparam TOP = W * 2 + 1;\n assign y = a + TOP;\nendmodule",
        );
        assert_eq!(d.params["W"], 3);
        assert_eq!(d.params["TOP"], 7);
    }

    #[test]
    fn rejects_unknown_property_reference() {
        let e = compile(
            "module m(input clk, input a);\n\
             lab: assert property (no_such_prop);\nendmodule",
        )
        .expect_err("should fail");
        assert!(e.primary().message.contains("no_such_prop"), "{e}");
    }

    #[test]
    fn rejects_property_with_unknown_signal() {
        let e = compile(
            "module m(input clk, input a);\n\
             property p; @(posedge clk) ghost |-> a; endproperty\n\
             assert property (p);\nendmodule",
        )
        .expect_err("should fail");
        assert!(e.primary().message.contains("ghost"), "{e}");
    }

    #[test]
    fn warns_on_floating_net() {
        let d = compile_ok("module m(input a, output y); wire unused; assign y = a; endmodule");
        assert!(d
            .warnings
            .iter()
            .any(|w| w.message.contains("unused") || w.message.contains("never driven")));
    }

    #[test]
    fn output_reg_redeclaration_merges() {
        let d = compile_ok(
            "module m(clk, q);\ninput clk;\noutput [3:0] q;\nreg [3:0] q;\n\
             always @(posedge clk) q <= q + 4'd1;\nendmodule",
        );
        assert_eq!(d.signals["q"].kind, NetKind::Reg);
        assert_eq!(d.signals["q"].width, 4);
    }

    #[test]
    fn const_eval_handles_operators() {
        let params = BTreeMap::from([("W".to_string(), 8u64)]);
        let e = parse("module t(output [31:0] y); assign y = 0; endmodule").expect("parse");
        drop(e);
        let expr = crate::parser::parse(
            "module t #(parameter X = (8 * 4) + (1 << 2))(output y); assign y = 1'b0; endmodule",
        )
        .expect("parse");
        let Item::Param(p) = &expr.modules[0].items[0] else {
            panic!()
        };
        assert_eq!(const_eval(&p.value, &params), Some(36));
    }

    #[test]
    fn rejects_wide_signals() {
        let e = compile("module m(input [127:0] a, output y); assign y = a[0]; endmodule")
            .expect_err("should fail");
        assert!(e.primary().message.contains("width"), "{e}");
    }
}
