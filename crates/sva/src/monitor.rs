//! Runtime assertion monitor: checks SVA directives over a recorded trace
//! and produces the failure logs the repair model consumes.
//!
//! Semantics, over the SVA subset listed in README "Verification
//! engines":
//!
//! * Properties are evaluated at every tick of the property clock. The
//!   simulator records one sample per tick, so each trace row is one
//!   evaluation attempt.
//! * `disable iff (expr)`: an attempt is discarded if the disable condition
//!   is true at any tick the attempt observes.
//! * Linear sequences `e0 ##n1 e1 ##n2 e2`: `e0` at the start tick, `e1`
//!   `n1` ticks later, and so on.
//! * `a |-> c`: if the antecedent matches ending at tick `t`, the
//!   consequent must match starting at `t`; `|=>` starts at `t + 1`.
//! * Attempts whose window extends past the end of the trace are *pending*
//!   and never reported as failures (bounded semantics).

use crate::eval::CompiledExpr;
use asv_sim::cover::CovMap;
use asv_sim::eval::EvalError;
use asv_sim::trace::Trace;
use asv_sim::value::Value;
use asv_verilog::ast::{AssertDirective, AssertTarget, Module, PropExpr, PropertyDecl, SeqExpr};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One assertion failure observed on a trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AssertionFailure {
    /// Module name.
    pub module: String,
    /// Assertion name (label or property name).
    pub assertion: String,
    /// Tick at which the attempt started.
    pub start_tick: usize,
    /// Tick at which the violation was established.
    pub fail_tick: usize,
    /// The `$error` message, if the directive has one.
    pub message: Option<String>,
}

impl fmt::Display for AssertionFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "failed assertion {}.{} at cycle {}",
            self.module, self.assertion, self.fail_tick
        )?;
        if let Some(m) = &self.message {
            write!(f, ": {m}")?;
        }
        Ok(())
    }
}

/// Outcome of checking one assertion over one trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckOutcome {
    /// No attempt failed; at least one attempt completed non-vacuously.
    Passed {
        /// Number of non-vacuous completed attempts.
        attempts: usize,
    },
    /// No attempt completed non-vacuously (antecedent never matched).
    Vacuous,
    /// At least one attempt failed.
    Failed(Vec<AssertionFailure>),
}

impl CheckOutcome {
    /// True when the outcome is [`CheckOutcome::Failed`].
    pub fn is_failure(&self) -> bool {
        matches!(self, CheckOutcome::Failed(_))
    }
}

/// Errors raised by the monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorError {
    /// The directive references a property the module does not declare.
    UnknownProperty(String),
    /// Expression evaluation failed at some tick.
    Eval(EvalError),
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::UnknownProperty(p) => write!(f, "unknown property `{p}`"),
            MonitorError::Eval(e) => write!(f, "monitor evaluation error: {e}"),
        }
    }
}

impl std::error::Error for MonitorError {}

impl From<EvalError> for MonitorError {
    fn from(e: EvalError) -> Self {
        MonitorError::Eval(e)
    }
}

/// Checks every assertion directive of `module` against `trace`.
///
/// Returns outcomes in directive order. One-shot convenience over
/// [`CompiledChecker`]; callers that monitor many traces of one design
/// (the bounded verifier, the invariant miner) should build the checker
/// once and reuse it.
///
/// # Errors
///
/// Returns [`MonitorError`] for dangling property references or evaluation
/// failures (undeclared signals in properties are caught earlier by
/// elaboration, so an error here indicates a harness bug).
pub fn check_module(
    module: &Module,
    trace: &Trace,
) -> Result<Vec<(AssertDirective, CheckOutcome)>, MonitorError> {
    let checker = CompiledChecker::new(module, |name| trace.col(name))?;
    Ok(checker
        .outcomes(trace)?
        .into_iter()
        .map(|(dir, outcome)| (dir.clone(), outcome))
        .collect())
}

/// A module's assertions compiled against a trace column layout.
///
/// Property expressions are lowered once to `asv_sim` bytecode (signal
/// names interned to trace columns); checking a trace then evaluates pure
/// programs at each tick with no AST walking or name hashing. All traces
/// produced by simulating one design share a column layout, so one
/// checker serves every stimulus of a verification run.
#[derive(Debug, Clone)]
pub struct CompiledChecker {
    module_name: String,
    directives: Vec<(AssertDirective, CompiledProp)>,
}

#[derive(Debug, Clone)]
struct CompiledProp {
    disable: Option<CompiledExpr>,
    body: CompiledPropExpr,
    window: u32,
}

#[derive(Debug, Clone)]
enum CompiledPropExpr {
    Seq(CompiledSeq),
    Implication {
        antecedent: CompiledSeq,
        overlapping: bool,
        consequent: CompiledSeq,
    },
}

#[derive(Debug, Clone)]
enum CompiledSeq {
    Expr(CompiledExpr),
    Delay {
        lhs: Box<CompiledSeq>,
        cycles: u32,
        rhs: Box<CompiledSeq>,
    },
}

impl CompiledChecker {
    /// Compiles every assertion of `module` against the column layout
    /// given by `col` (signal name → trace column).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::UnknownProperty`] for dangling property
    /// references.
    pub fn new<C: Fn(&str) -> Option<usize> + Copy>(
        module: &Module,
        col: C,
    ) -> Result<Self, MonitorError> {
        let mut directives = Vec::new();
        for dir in module.assertions() {
            let prop = resolve(module, dir)?;
            directives.push((dir.clone(), compile_property(prop, col)));
        }
        Ok(CompiledChecker {
            module_name: module.name.clone(),
            directives,
        })
    }

    /// Checks all compiled assertions against one trace.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures as [`MonitorError::Eval`].
    pub fn outcomes(
        &self,
        trace: &Trace,
    ) -> Result<Vec<(&AssertDirective, CheckOutcome)>, MonitorError> {
        let mut out = Vec::with_capacity(self.directives.len());
        // One scratch stack serves every bytecode evaluation of the run.
        let mut stack = Vec::with_capacity(8);
        for (dir, prop) in &self.directives {
            let outcome = check_property(&self.module_name, dir, prop, trace, &mut stack)?;
            out.push((dir, outcome));
        }
        Ok(out)
    }

    /// Lane-batched [`CompiledChecker::outcomes`]: judges every trace of
    /// a lane group with one shared scratch stack, returning per-trace
    /// results in order. Each trace's judgment is independent (an eval
    /// error in one lane never masks another lane's outcome), so callers
    /// can merge events in stimulus-index order exactly as the scalar
    /// loop would have.
    pub fn outcomes_lanes<'a, 'b>(
        &'a self,
        traces: impl IntoIterator<Item = &'b Trace>,
    ) -> Vec<Result<Vec<(&'a AssertDirective, CheckOutcome)>, MonitorError>> {
        let mut stack = Vec::with_capacity(8);
        traces
            .into_iter()
            .map(|trace| {
                self.directives
                    .iter()
                    .map(|(dir, prop)| {
                        check_property(&self.module_name, dir, prop, trace, &mut stack)
                            .map(|outcome| (dir, outcome))
                    })
                    .collect()
            })
            .collect()
    }

    /// Number of compiled assertion directives (the antecedent axis of a
    /// [`CovMap`]).
    pub fn assertion_count(&self) -> usize {
        self.directives.len()
    }

    /// [`CompiledChecker::outcomes`] plus coverage: directive *i* is
    /// recorded as antecedent-fired in `cov` when at least one attempt
    /// completed non-vacuously ([`CheckOutcome::Passed`]) or failed
    /// ([`CheckOutcome::Failed`]) — the per-assertion feedback signal of
    /// the coverage-guided fuzzer.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures as [`MonitorError::Eval`].
    pub fn outcomes_cov(
        &self,
        trace: &Trace,
        cov: &mut CovMap,
    ) -> Result<Vec<(&AssertDirective, CheckOutcome)>, MonitorError> {
        let out = self.outcomes(trace)?;
        for (i, (_, outcome)) in out.iter().enumerate() {
            if matches!(
                outcome,
                CheckOutcome::Passed { .. } | CheckOutcome::Failed(_)
            ) {
                cov.record_antecedent(i);
            }
        }
        Ok(out)
    }
}

fn compile_property<C: Fn(&str) -> Option<usize> + Copy>(
    prop: &PropertyDecl,
    col: C,
) -> CompiledProp {
    CompiledProp {
        disable: prop.disable.as_ref().map(|d| CompiledExpr::new(d, col)),
        body: match &prop.body {
            PropExpr::Seq(s) => CompiledPropExpr::Seq(compile_seq(s, col)),
            PropExpr::Implication {
                antecedent,
                overlapping,
                consequent,
                ..
            } => CompiledPropExpr::Implication {
                antecedent: compile_seq(antecedent, col),
                overlapping: *overlapping,
                consequent: compile_seq(consequent, col),
            },
        },
        window: prop.body.window(),
    }
}

fn compile_seq<C: Fn(&str) -> Option<usize> + Copy>(seq: &SeqExpr, col: C) -> CompiledSeq {
    match seq {
        SeqExpr::Expr(e) => CompiledSeq::Expr(CompiledExpr::new(e, col)),
        SeqExpr::Delay {
            lhs, cycles, rhs, ..
        } => CompiledSeq::Delay {
            lhs: Box::new(compile_seq(lhs, col)),
            cycles: *cycles,
            rhs: Box::new(compile_seq(rhs, col)),
        },
    }
}

/// Collects the rendered failure-log lines for a whole module (the `Logs`
/// artefact fed to the repair model).
///
/// # Errors
///
/// Propagates [`MonitorError`] from [`check_module`].
pub fn failure_logs(module: &Module, trace: &Trace) -> Result<Vec<String>, MonitorError> {
    let mut logs = Vec::new();
    for (_, outcome) in check_module(module, trace)? {
        if let CheckOutcome::Failed(fails) = outcome {
            for f in fails {
                logs.push(f.to_string());
            }
        }
    }
    Ok(logs)
}

fn resolve<'m>(
    module: &'m Module,
    dir: &'m AssertDirective,
) -> Result<&'m PropertyDecl, MonitorError> {
    match &dir.target {
        AssertTarget::Named(n) => module
            .properties()
            .find(|p| &p.name == n)
            .ok_or_else(|| MonitorError::UnknownProperty(n.clone())),
        AssertTarget::Inline(p) => Ok(p),
    }
}

/// Checks a single compiled property for a directive, reporting all
/// failures (capped at 16 to bound log size, as real simulators do with
/// `-assert-limit`).
fn check_property(
    module_name: &str,
    dir: &AssertDirective,
    prop: &CompiledProp,
    trace: &Trace,
    stack: &mut Vec<Value>,
) -> Result<CheckOutcome, MonitorError> {
    const MAX_REPORTED: usize = 16;
    let mut failures = Vec::new();
    let mut completed = 0usize;
    for start in 0..trace.len() {
        match attempt(prop, trace, start, stack)? {
            AttemptOutcome::Pass => completed += 1,
            AttemptOutcome::Vacuous | AttemptOutcome::Disabled | AttemptOutcome::Pending => {}
            AttemptOutcome::Fail { fail_tick } => {
                if failures.len() < MAX_REPORTED {
                    failures.push(AssertionFailure {
                        module: module_name.to_string(),
                        assertion: dir.log_name().to_string(),
                        start_tick: start,
                        fail_tick,
                        message: dir.message.clone(),
                    });
                }
            }
        }
    }
    if !failures.is_empty() {
        Ok(CheckOutcome::Failed(failures))
    } else if completed > 0 {
        Ok(CheckOutcome::Passed {
            attempts: completed,
        })
    } else {
        Ok(CheckOutcome::Vacuous)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttemptOutcome {
    Pass,
    Vacuous,
    Disabled,
    Pending,
    Fail { fail_tick: usize },
}

/// Evaluates one property attempt starting at `start`.
fn attempt(
    prop: &CompiledProp,
    trace: &Trace,
    start: usize,
    stack: &mut Vec<Value>,
) -> Result<AttemptOutcome, MonitorError> {
    // Disable check across the whole observation window (clamped to trace).
    if let Some(dis) = &prop.disable {
        let end = (start + prop.window as usize).min(trace.len().saturating_sub(1));
        for t in start..=end {
            if dis.holds_at_with(trace, t, stack)? {
                return Ok(AttemptOutcome::Disabled);
            }
        }
    }
    match &prop.body {
        CompiledPropExpr::Seq(seq) => match match_seq(seq, trace, start, stack)? {
            SeqOutcome::Match { .. } => Ok(AttemptOutcome::Pass),
            SeqOutcome::NoMatch { fail_tick } => Ok(AttemptOutcome::Fail { fail_tick }),
            SeqOutcome::Pending => Ok(AttemptOutcome::Pending),
        },
        CompiledPropExpr::Implication {
            antecedent,
            overlapping,
            consequent,
        } => match match_seq(antecedent, trace, start, stack)? {
            SeqOutcome::NoMatch { .. } => Ok(AttemptOutcome::Vacuous),
            SeqOutcome::Pending => Ok(AttemptOutcome::Pending),
            SeqOutcome::Match { end } => {
                let cstart = if *overlapping { end } else { end + 1 };
                match match_seq(consequent, trace, cstart, stack)? {
                    SeqOutcome::Match { .. } => Ok(AttemptOutcome::Pass),
                    SeqOutcome::NoMatch { fail_tick } => Ok(AttemptOutcome::Fail { fail_tick }),
                    SeqOutcome::Pending => Ok(AttemptOutcome::Pending),
                }
            }
        },
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeqOutcome {
    Match { end: usize },
    NoMatch { fail_tick: usize },
    Pending,
}

/// Matches a linear sequence starting at tick `start`.
fn match_seq(
    seq: &CompiledSeq,
    trace: &Trace,
    start: usize,
    stack: &mut Vec<Value>,
) -> Result<SeqOutcome, MonitorError> {
    match seq {
        CompiledSeq::Expr(e) => {
            if start >= trace.len() {
                return Ok(SeqOutcome::Pending);
            }
            if e.holds_at_with(trace, start, stack)? {
                Ok(SeqOutcome::Match { end: start })
            } else {
                Ok(SeqOutcome::NoMatch { fail_tick: start })
            }
        }
        CompiledSeq::Delay { lhs, cycles, rhs } => match match_seq(lhs, trace, start, stack)? {
            SeqOutcome::Match { end } => match_seq(rhs, trace, end + *cycles as usize, stack),
            other => Ok(other),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_sim::Simulator;
    use asv_verilog::compile;

    /// The paper's Fig. 1 accumulator with the seeded logic error
    /// (`!end_cnt` instead of `end_cnt`).
    const ACCU_BUGGY: &str = r#"
module accu(input clk, input rst_n, input valid_in, output reg valid_out);
  reg [1:0] cnt;
  wire end_cnt;
  assign end_cnt = (cnt == 2'd3) && valid_in;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) cnt <= 2'd0;
    else if (valid_in) cnt <= end_cnt ? 2'd0 : cnt + 2'd1;
  end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) valid_out <= 1'b0;
    else if (!end_cnt) valid_out <= 1'b1;
    else valid_out <= 1'b0;
  end
  property valid_out_check;
    @(posedge clk) disable iff (!rst_n)
    end_cnt |-> ##1 valid_out == 1'b1;
  endproperty
  valid_out_check_assertion: assert property (valid_out_check)
    else $error("valid_out should be high when end_cnt high");
endmodule
"#;

    const ACCU_FIXED: &str = r#"
module accu(input clk, input rst_n, input valid_in, output reg valid_out);
  reg [1:0] cnt;
  wire end_cnt;
  assign end_cnt = (cnt == 2'd3) && valid_in;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) cnt <= 2'd0;
    else if (valid_in) cnt <= end_cnt ? 2'd0 : cnt + 2'd1;
  end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) valid_out <= 1'b0;
    else if (end_cnt) valid_out <= 1'b1;
    else valid_out <= 1'b0;
  end
  property valid_out_check;
    @(posedge clk) disable iff (!rst_n)
    end_cnt |-> ##1 valid_out == 1'b1;
  endproperty
  valid_out_check_assertion: assert property (valid_out_check)
    else $error("valid_out should be high when end_cnt high");
endmodule
"#;

    fn run(src: &str, cycles: usize) -> (asv_verilog::Design, Trace) {
        let d = compile(src).unwrap_or_else(|e| panic!("compile: {e}"));
        let mut sim = Simulator::new(&d);
        sim.step(&[("rst_n", 0), ("valid_in", 0)]).expect("reset");
        for _ in 0..cycles {
            sim.step(&[("rst_n", 1), ("valid_in", 1)]).expect("step");
        }
        let trace = sim.into_trace();
        (d, trace)
    }

    #[test]
    fn buggy_accu_fails_assertion() {
        let (d, trace) = run(ACCU_BUGGY, 12);
        let logs = failure_logs(&d.module, &trace).expect("monitor ok");
        assert!(!logs.is_empty(), "bug must trip the assertion");
        assert!(
            logs[0].contains("failed assertion accu.valid_out_check_assertion"),
            "got: {}",
            logs[0]
        );
        assert!(logs[0].contains("valid_out should be high"));
    }

    #[test]
    fn fixed_accu_passes_assertion() {
        let (d, trace) = run(ACCU_FIXED, 12);
        let results = check_module(&d.module, &trace).expect("monitor ok");
        assert_eq!(results.len(), 1);
        match &results[0].1 {
            CheckOutcome::Passed { attempts } => assert!(*attempts >= 2, "attempts: {attempts}"),
            other => panic!("expected pass, got {other:?}"),
        }
    }

    #[test]
    fn vacuous_when_antecedent_never_fires() {
        let (d, trace) = {
            let d = compile(ACCU_FIXED).expect("compile");
            let mut sim = Simulator::new(&d);
            sim.step(&[("rst_n", 0), ("valid_in", 0)]).expect("reset");
            for _ in 0..8 {
                sim.step(&[("rst_n", 1), ("valid_in", 0)]).expect("step");
            }
            (d.clone(), sim.into_trace())
        };
        let results = check_module(&d.module, &trace).expect("monitor ok");
        assert_eq!(results[0].1, CheckOutcome::Vacuous);
    }

    #[test]
    fn disable_iff_suppresses_reset_failures() {
        // Keep reset asserted the whole run: the property must never fire.
        let d = compile(ACCU_BUGGY).expect("compile");
        let mut sim = Simulator::new(&d);
        for _ in 0..8 {
            sim.step(&[("rst_n", 0), ("valid_in", 1)]).expect("step");
        }
        let trace = sim.into_trace();
        let results = check_module(&d.module, &trace).expect("monitor ok");
        assert!(
            !results[0].1.is_failure(),
            "attempts under reset must be discarded"
        );
    }

    #[test]
    fn pending_windows_are_not_failures() {
        // Run exactly up to a tick where end_cnt fires but the ##1
        // consequent tick is past the end of the trace.
        let d = compile(ACCU_BUGGY).expect("compile");
        let mut sim = Simulator::new(&d);
        sim.step(&[("rst_n", 0), ("valid_in", 0)]).expect("reset");
        for _ in 0..4 {
            sim.step(&[("rst_n", 1), ("valid_in", 1)]).expect("step");
        }
        // end_cnt is sampled true at tick 4 (cnt==3), consequent at 5 missing.
        let trace = sim.into_trace();
        assert_eq!(trace.len(), 5);
        let results = check_module(&d.module, &trace).expect("monitor ok");
        assert!(
            !results[0].1.is_failure(),
            "pending obligation must not fail: {:?}",
            results[0].1
        );
    }

    #[test]
    fn failure_fields_are_populated() {
        let (d, trace) = run(ACCU_BUGGY, 12);
        let results = check_module(&d.module, &trace).expect("monitor ok");
        let CheckOutcome::Failed(fails) = &results[0].1 else {
            panic!("expected failure");
        };
        let f = &fails[0];
        assert_eq!(f.module, "accu");
        assert_eq!(f.assertion, "valid_out_check_assertion");
        assert_eq!(f.fail_tick, f.start_tick + 1, "##1 consequent");
    }
}
