//! Sampled-value expression evaluation over traces.
//!
//! Property expressions may contain history system functions (`$past`,
//! `$rose`, `$fell`, `$stable`). Two evaluation paths exist:
//!
//! * the **compiled path** ([`CompiledExpr`]): the expression is lowered
//!   once into `asv_sim` bytecode with trace columns interned as
//!   [`SigId`]s, and history calls become [`ExecEnv::history`]
//!   sub-programs the [`TraceExecEnv`] resolves by re-running them at
//!   shifted ticks. The monitor and the bounded verifier use this path —
//!   compile once, evaluate at every tick of every trace.
//! * the **interpreter path** ([`eval_at`]/[`holds_at`]): each history
//!   call is rewritten into a literal and the AST is tree-walked via
//!   [`asv_sim::eval`]. Kept as the reference oracle.

use asv_sim::compile::{compile_expr, run, ExecEnv, ExprProg, HistoryKind, NameRef, SigId};
use asv_sim::eval::{eval, Env, EvalError};
use asv_sim::trace::Trace;
use asv_sim::value::Value;
use asv_verilog::ast::Expr;
use asv_verilog::Span;

/// Environment sampling a trace at a fixed tick.
#[derive(Debug, Clone, Copy)]
pub struct TraceEnv<'a> {
    trace: &'a Trace,
    t: usize,
}

impl<'a> TraceEnv<'a> {
    /// Creates an environment for tick `t`.
    pub fn new(trace: &'a Trace, t: usize) -> Self {
        TraceEnv { trace, t }
    }
}

impl Env for TraceEnv<'_> {
    fn value_of(&self, name: &str) -> Option<Value> {
        self.trace.value(self.t, name)
    }
}

/// A property expression compiled against a trace column layout.
///
/// Construction interns every referenced signal to its trace column; the
/// per-tick evaluation that dominates monitoring cost then runs without
/// any name lookups or AST rewriting.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    prog: ExprProg,
}

impl CompiledExpr {
    /// Compiles `expr` against the column layout given by `col` (signal
    /// name → trace column). Unknown names compile to instructions that
    /// raise [`EvalError::UnknownSignal`] only if actually evaluated,
    /// matching the interpreter path.
    pub fn new<C: Fn(&str) -> Option<usize>>(expr: &Expr, col: C) -> Self {
        let resolve = |name: &str| match col(name) {
            Some(c) => NameRef::Sig(SigId(c as u32)),
            None => NameRef::Unknown,
        };
        CompiledExpr {
            prog: compile_expr(expr, &resolve, true),
        }
    }

    /// Evaluates at tick `t` of `trace`.
    ///
    /// # Errors
    ///
    /// Returns the same [`EvalError`]s as the interpreter path.
    pub fn eval_at(&self, trace: &Trace, t: usize) -> Result<Value, EvalError> {
        self.eval_at_with(trace, t, &mut Vec::with_capacity(8))
    }

    /// Evaluates at tick `t`, reusing a caller-provided scratch stack —
    /// the allocation-free form the per-tick monitoring loop uses.
    ///
    /// # Errors
    ///
    /// Returns the same [`EvalError`]s as the interpreter path.
    pub fn eval_at_with(
        &self,
        trace: &Trace,
        t: usize,
        stack: &mut Vec<Value>,
    ) -> Result<Value, EvalError> {
        run(&self.prog, &TraceExecEnv { trace, t }, stack)
    }

    /// Evaluates at tick `t` and reports truthiness.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from evaluation.
    pub fn holds_at(&self, trace: &Trace, t: usize) -> Result<bool, EvalError> {
        Ok(self.eval_at(trace, t)?.is_truthy())
    }

    /// Truthiness at tick `t` with a caller-provided scratch stack.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from evaluation.
    pub fn holds_at_with(
        &self,
        trace: &Trace,
        t: usize,
        stack: &mut Vec<Value>,
    ) -> Result<bool, EvalError> {
        Ok(self.eval_at_with(trace, t, stack)?.is_truthy())
    }
}

/// Bytecode environment sampling a trace at a fixed tick: signal loads
/// index the trace row directly, history calls re-run their sub-program at
/// shifted ticks.
#[derive(Debug, Clone, Copy)]
pub struct TraceExecEnv<'a> {
    trace: &'a Trace,
    t: usize,
}

impl ExecEnv for TraceExecEnv<'_> {
    #[inline]
    fn load(&self, sig: SigId) -> Value {
        self.trace.get(self.t, sig.idx())
    }

    fn history(&self, kind: HistoryKind, arg: &ExprProg, n: usize) -> Result<Value, EvalError> {
        let mut stack = Vec::with_capacity(8);
        let at = |t: usize| TraceExecEnv {
            trace: self.trace,
            t,
        };
        match kind {
            HistoryKind::Past => run(arg, &at(self.t.saturating_sub(n)), &mut stack),
            HistoryKind::Rose | HistoryKind::Fell | HistoryKind::Stable => {
                let now = run(arg, self, &mut stack)?;
                let before = if self.t == 0 {
                    // Before the first sample: $rose/$fell see 0 history,
                    // $stable is true (matches the interpreter path).
                    match kind {
                        HistoryKind::Stable => now,
                        _ => Value::zero(now.width()),
                    }
                } else {
                    run(arg, &at(self.t - 1), &mut stack)?
                };
                Ok(Value::bit(match kind {
                    HistoryKind::Rose => now.get_bit(0) && !before.get_bit(0),
                    HistoryKind::Fell => !now.get_bit(0) && before.get_bit(0),
                    _ => now == before,
                }))
            }
        }
    }
}

/// Evaluates `expr` at tick `t` of `trace`, resolving history calls.
///
/// # Errors
///
/// Returns [`EvalError`] for unknown signals, unsupported system calls and
/// arithmetic faults.
pub fn eval_at(expr: &Expr, trace: &Trace, t: usize) -> Result<Value, EvalError> {
    let rewritten = resolve_history(expr, trace, t)?;
    eval(&rewritten, &TraceEnv::new(trace, t))
}

/// Evaluates `expr` at tick `t` and reports truthiness.
///
/// # Errors
///
/// Propagates [`EvalError`] from evaluation.
pub fn holds_at(expr: &Expr, trace: &Trace, t: usize) -> Result<bool, EvalError> {
    Ok(eval_at(expr, trace, t)?.is_truthy())
}

/// Replaces history system calls with literal values computed from the
/// trace. All other nodes are cloned structurally.
fn resolve_history(expr: &Expr, trace: &Trace, t: usize) -> Result<Expr, EvalError> {
    Ok(match expr {
        Expr::SysCall { name, args, span } => match name.as_str() {
            "past" => {
                let n = match args.get(1) {
                    None => 1,
                    Some(e) => {
                        let v = eval_at(e, trace, t)?;
                        usize::try_from(v.bits()).unwrap_or(usize::MAX)
                    }
                };
                let arg = args
                    .first()
                    .ok_or_else(|| EvalError::Malformed("$past requires an argument".into()))?;
                let at = t.saturating_sub(n);
                let v = eval_at(arg, trace, at)?;
                literal(v, *span)
            }
            "rose" | "fell" | "stable" => {
                let arg = args
                    .first()
                    .ok_or_else(|| EvalError::Malformed(format!("${name} requires an argument")))?;
                let now = eval_at(arg, trace, t)?;
                let before = if t == 0 {
                    // Before the first sample: $rose/$fell see 0 history,
                    // $stable is true (matches Trace helpers).
                    match name.as_str() {
                        "stable" => now,
                        _ => Value::zero(now.width()),
                    }
                } else {
                    eval_at(arg, trace, t - 1)?
                };
                let b = match name.as_str() {
                    "rose" => now.get_bit(0) && !before.get_bit(0),
                    "fell" => !now.get_bit(0) && before.get_bit(0),
                    _ => now == before,
                };
                literal(Value::bit(b), *span)
            }
            _ => Expr::SysCall {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|a| resolve_history(a, trace, t))
                    .collect::<Result<_, _>>()?,
                span: *span,
            },
        },
        Expr::Unary { op, operand, span } => Expr::Unary {
            op: *op,
            operand: Box::new(resolve_history(operand, trace, t)?),
            span: *span,
        },
        Expr::Binary { op, lhs, rhs, span } => Expr::Binary {
            op: *op,
            lhs: Box::new(resolve_history(lhs, trace, t)?),
            rhs: Box::new(resolve_history(rhs, trace, t)?),
            span: *span,
        },
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            span,
        } => Expr::Ternary {
            cond: Box::new(resolve_history(cond, trace, t)?),
            then_expr: Box::new(resolve_history(then_expr, trace, t)?),
            else_expr: Box::new(resolve_history(else_expr, trace, t)?),
            span: *span,
        },
        Expr::Concat { parts, span } => Expr::Concat {
            parts: parts
                .iter()
                .map(|p| resolve_history(p, trace, t))
                .collect::<Result<_, _>>()?,
            span: *span,
        },
        Expr::Repeat { count, value, span } => Expr::Repeat {
            count: Box::new(resolve_history(count, trace, t)?),
            value: Box::new(resolve_history(value, trace, t)?),
            span: *span,
        },
        Expr::Bit { name, index, span } => Expr::Bit {
            name: name.clone(),
            index: Box::new(resolve_history(index, trace, t)?),
            span: *span,
        },
        other => other.clone(),
    })
}

fn literal(v: Value, span: Span) -> Expr {
    Expr::Number {
        value: v.bits(),
        width: Some(v.width()),
        base: Some('h'),
        span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_verilog::ast::Item;
    use asv_verilog::parse;

    fn trace() -> Trace {
        let mut tr = Trace::new(vec!["d".into(), "q".into(), "v".into()]);
        // d: 1,2,3 ; q lags d by one; v pulses at t=1
        tr.push(vec![Value::new(1, 4), Value::new(0, 4), Value::new(0, 1)]);
        tr.push(vec![Value::new(2, 4), Value::new(1, 4), Value::new(1, 1)]);
        tr.push(vec![Value::new(3, 4), Value::new(2, 4), Value::new(0, 1)]);
        tr
    }

    fn expr(src: &str) -> Expr {
        let unit = parse(&format!(
            "module t(input clk, input [3:0] d, input [3:0] q, input v);\n\
             property p; @(posedge clk) {src}; endproperty\nassert property (p);\nendmodule"
        ))
        .expect("parse");
        let Item::Property(p) = unit.modules[0]
            .items
            .iter()
            .find(|i| matches!(i, Item::Property(_)))
            .expect("property")
        else {
            unreachable!()
        };
        match &p.body {
            asv_verilog::ast::PropExpr::Seq(asv_verilog::ast::SeqExpr::Expr(e)) => e.clone(),
            other => panic!("expected plain expr, got {other:?}"),
        }
    }

    #[test]
    fn past_shifts_time() {
        let tr = trace();
        let e = expr("q == $past(d, 1)");
        assert!(holds_at(&e, &tr, 1).expect("eval"));
        assert!(holds_at(&e, &tr, 2).expect("eval"));
        // At t=0, $past clamps to t=0: q(0)=0 != d(0)=1.
        assert!(!holds_at(&e, &tr, 0).expect("eval"));
    }

    #[test]
    fn nested_past_expression() {
        let tr = trace();
        let e = expr("$past(d + 4'd1, 1) == d");
        // d(t-1)+1 == d(t) for the ramp 1,2,3.
        assert!(holds_at(&e, &tr, 1).expect("eval"));
        assert!(holds_at(&e, &tr, 2).expect("eval"));
    }

    #[test]
    fn rose_and_fell() {
        let tr = trace();
        assert!(holds_at(&expr("$rose(v)"), &tr, 1).expect("eval"));
        assert!(!holds_at(&expr("$rose(v)"), &tr, 2).expect("eval"));
        assert!(holds_at(&expr("$fell(v)"), &tr, 2).expect("eval"));
        assert!(!holds_at(&expr("$rose(v)"), &tr, 0).expect("eval"));
    }

    #[test]
    fn stable_checks_whole_value() {
        let tr = trace();
        assert!(!holds_at(&expr("$stable(d)"), &tr, 1).expect("eval"));
        assert!(holds_at(&expr("$stable(d) || d == $past(d) + 4'd1"), &tr, 1).expect("eval"));
        assert!(
            holds_at(&expr("$stable(d)"), &tr, 0).expect("eval"),
            "stable at t=0"
        );
    }

    #[test]
    fn unknown_signal_errors() {
        let tr = trace();
        let e = Expr::Ident {
            name: "ghost".into(),
            span: Span::default(),
        };
        assert!(matches!(
            holds_at(&e, &tr, 0),
            Err(EvalError::UnknownSignal(_))
        ));
    }
}
