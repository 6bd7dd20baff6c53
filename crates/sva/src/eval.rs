//! Sampled-value expression evaluation over traces.
//!
//! Property expressions may contain history system functions (`$past`,
//! `$rose`, `$fell`, `$stable`). A [`CompiledExpr`] lowers the expression
//! once into `asv_sim` bytecode with trace columns interned as
//! [`SigId`]s; history calls become [`ExecEnv::history`] sub-programs the
//! [`TraceExecEnv`] resolves by re-running them at shifted ticks. The
//! monitor and the bounded verifier compile once and evaluate at every
//! tick of every trace.

use asv_sim::compile::{compile_expr, run, ExecEnv, ExprProg, HistoryKind, NameRef, SigId};
use asv_sim::eval::EvalError;
use asv_sim::trace::Trace;
use asv_sim::value::Value;
use asv_verilog::ast::Expr;

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
    /// raise [`EvalError::UnknownSignal`] only if actually evaluated.
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
    /// Returns [`EvalError`] for unknown signals, unsupported system calls
    /// and arithmetic faults.
    pub fn eval_at(&self, trace: &Trace, t: usize) -> Result<Value, EvalError> {
        self.eval_at_with(trace, t, &mut Vec::with_capacity(8))
    }

    /// Evaluates at tick `t`, reusing a caller-provided scratch stack —
    /// the allocation-free form the per-tick monitoring loop uses.
    ///
    /// # Errors
    ///
    /// As [`CompiledExpr::eval_at`].
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
                    // $stable is true.
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

#[cfg(test)]
mod tests {
    use super::*;
    use asv_verilog::ast::Item;
    use asv_verilog::{parse, Span};

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

    fn holds_at(e: &Expr, tr: &Trace, t: usize) -> Result<bool, EvalError> {
        CompiledExpr::new(e, |n| tr.col(n)).holds_at(tr, t)
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
