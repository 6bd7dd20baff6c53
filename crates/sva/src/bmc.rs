//! Bounded model checking: the reproduction's substitute for SymbiYosys.
//!
//! The paper uses SymbiYosys twice: (1) to prove generated SVAs valid on
//! the golden design, and (2) to confirm injected bugs trip the SVAs and to
//! produce the failure logs. [`Verifier::check`] provides both through a
//! selectable [`Engine`]:
//!
//! * **Symbolic** — the `asv-sat` bounded model checker bit-blasts the
//!   compiled design, unrolls it over time frames and decides every
//!   assertion with an embedded CDCL SAT solver. Verdicts are exhaustive
//!   over the *entire* input space up to the depth, counterexamples are
//!   minimal-depth, and vacuity is proven rather than sampled.
//! * **Simulation** — the concrete rung alone: exhaustive stimulus
//!   enumeration when the input space fits [`Verifier::exhaustive_limit`],
//!   otherwise the fuzzer at [`Verifier::random_runs`].
//! * **Fuzz** — the `asv-fuzz` coverage-guided greybox fuzzer: branch,
//!   toggle and antecedent coverage recorded per run feeds an AFL-style
//!   corpus whose mutations (including design-constant dictionary
//!   substitution) direct the search toward rare triggers that blind
//!   random stimuli miss. Deterministic from [`Verifier::seed`]; the
//!   stimulus budget is [`Verifier::random_runs`].
//! * **Auto** (default) — symbolic whenever the design is levelizable and
//!   2-state encodable. Outside that subset (cyclic/latch designs,
//!   non-constant division, dynamic bit indices) it runs the concrete
//!   rung, as **Simulation** does.
//!
//! Every symbolic counterexample is replayed on the compiled simulator
//! before being reported, and every fuzzer finding additionally replays
//! on the `AstSimulator` interpreter oracle, so `Fails` verdicts carry
//! exactly the logs a concrete run produces.
//!
//! ## Rungs and tracing
//!
//! [`Verifier::check_traced`] passes a [`TraceHandle`] to every engine,
//! and each engine a check runs is one *rung*, traced as one
//! [`SpanKind::Rung`] span. [`Engine::Auto`] runs at most two: symbolic
//! first, then, when the symbolic engine gives no verdict (an
//! out-of-subset design or a spent `BmcOptions::{conflict_budget,
//! node_limit}` cap), the concrete rung. A forced [`Engine::Symbolic`]
//! that gets no verdict reports [`VerifyError::Symbolic`] with the
//! engine's reason, or the structured [`VerifyError::Exhausted`] for a
//! spent cap. Panics are not caught here: the
//! verification service isolates each job behind its own barrier.

pub use asv_sim::compile::OptLevel;

use crate::monitor::{AssertionFailure, CheckOutcome, CompiledChecker, MonitorError};
use asv_fuzz::{AssertionOracle, FuzzError, FuzzOptions, FuzzVerdict};
use asv_sat::engine::{BmcError, BmcOptions, BmcVerdict};
use asv_sim::cancel::Exhausted;
use asv_sim::compile::CompiledDesign;
use asv_sim::cover::CovMap;
use asv_sim::exec::{SimError, Simulator};
use asv_sim::stimulus::{Stimulus, StimulusGen};
use asv_sim::trace::Trace;
use asv_sim::{run_stimulus_group, LANES};
use asv_trace::{probe, Cost, EndReason, EngineTag, SpanKind, TraceHandle, TraceSink};
use asv_verilog::sema::Design;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Result of verifying a design's assertions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// No failure found. `exhaustive` is true when the whole input space up
    /// to the depth was covered — by enumeration (`stimuli > 0`) or by a
    /// symbolic bounded proof (`stimuli == 0`); false after a fuzz
    /// campaign, which covers only its `stimuli` runs.
    Holds {
        /// Whether the search was exhaustive up to the depth.
        exhaustive: bool,
        /// Number of stimuli simulated (0 for a symbolic proof, which
        /// simulates none).
        stimuli: usize,
        /// Assertions that never fired non-vacuously on any stimulus
        /// (empty = every check was exercised).
        vacuous: Vec<String>,
    },
    /// A counterexample was found. It is shared, not owned: the verdict
    /// memo, in-batch duplicates and every caller's copy of the verdict
    /// point at one allocation, so cloning a verdict never copies its
    /// stimulus, failures or logs.
    Fails(Arc<CounterExample>),
    /// No engine produced a verdict. No check returns it: every engine
    /// either decides or errors. The variant stays, with no fields, so
    /// that matches written against it (the repository benchmark's, for
    /// one) keep compiling.
    Inconclusive {},
}

impl Verdict {
    /// True for [`Verdict::Fails`].
    pub fn is_failure(&self) -> bool {
        matches!(self, Verdict::Fails(_))
    }

    /// True when the design holds and every assertion fired at least once
    /// (the correctness notion used by the evaluation judge).
    pub fn holds_non_vacuously(&self) -> bool {
        matches!(self, Verdict::Holds { vacuous, .. } if vacuous.is_empty())
    }
}

/// A concrete failing run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterExample {
    /// The stimulus that exposed the failure.
    pub stimulus: Stimulus,
    /// All assertion failures observed on that stimulus.
    pub failures: Vec<AssertionFailure>,
    /// Rendered log lines (the `Logs` input of the repair task).
    pub logs: Vec<String>,
}

/// Errors raised during verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Simulation failed (e.g. combinational divergence after a mutation).
    Sim(SimError),
    /// Monitoring failed.
    Monitor(MonitorError),
    /// The design has no assertions to check.
    NoAssertions,
    /// [`Engine::Symbolic`] was requested but the design falls outside the
    /// symbolic engine's subset; carries the engine's reason (with
    /// [`Engine::Auto`] this silently falls back to a concrete engine
    /// instead).
    Symbolic(String),
    /// The fuzzing engine failed (oracle error or a finding that did not
    /// replay on the interpreter — harness bugs, not design verdicts).
    Fuzz(String),
    /// A forced [`Engine::Symbolic`] spent a `BmcOptions` cap before a
    /// verdict ([`Engine::Auto`] hands the design to a concrete engine
    /// instead).
    Exhausted(Exhausted),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Sim(e) => write!(f, "simulation error: {e}"),
            VerifyError::Monitor(e) => write!(f, "monitor error: {e}"),
            VerifyError::NoAssertions => write!(f, "design has no assertions"),
            VerifyError::Symbolic(m) => write!(f, "symbolic engine unavailable: {m}"),
            VerifyError::Fuzz(m) => write!(f, "fuzzing engine failed: {m}"),
            VerifyError::Exhausted(e) => write!(f, "verification {e}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<SimError> for VerifyError {
    fn from(e: SimError) -> Self {
        VerifyError::Sim(e)
    }
}

impl From<MonitorError> for VerifyError {
    fn from(e: MonitorError) -> Self {
        VerifyError::Monitor(e)
    }
}

/// Why the symbolic engine produced no verdict: the `Err` side of
/// [`Verifier::check_symbolic`]. [`Engine::Auto`] hands the design to the
/// concrete rung on either failure.
#[derive(Debug, Clone)]
enum RungFailure {
    /// The design is outside the engine's subset, or its witness did not
    /// replay: the reason alone, without the engine's name.
    Unsupported(String),
    /// A `BmcOptions` cap ran out.
    Exhausted(Exhausted),
}

impl RungFailure {
    /// The forced-engine ([`Engine::Symbolic`]) error for this failure.
    fn into_error(self) -> VerifyError {
        match self {
            RungFailure::Unsupported(reason) => VerifyError::Symbolic(reason),
            RungFailure::Exhausted(e) => VerifyError::Exhausted(e),
        }
    }
}

/// [`EndReason`] of a rung that returned `verdict`.
fn end_of(verdict: &Verdict) -> EndReason {
    match verdict {
        Verdict::Holds { .. } => EndReason::Holds,
        Verdict::Fails(_) => EndReason::Fails,
        Verdict::Inconclusive {} => EndReason::Exhausted,
    }
}

/// [`EndReason`] of a concrete rung (enumeration or the fuzzer), whose
/// errors are simulation or harness failures.
fn verdict_end(res: &Result<Verdict, VerifyError>) -> EndReason {
    match res {
        Ok(verdict) => end_of(verdict),
        Err(_) => EndReason::Unknown,
    }
}

/// [`EndReason`] of a symbolic rung, forced or under [`Engine::Auto`].
fn symbolic_end(res: &Result<Verdict, RungFailure>) -> EndReason {
    match res {
        Ok(verdict) => end_of(verdict),
        Err(RungFailure::Exhausted(_)) => EndReason::Exhausted,
        Err(RungFailure::Unsupported(_)) => EndReason::Unsupported,
    }
}

/// Wraps one rung in its trace span.
///
/// The body runs under an engine-tagged copy of `trace`, so every child
/// span it emits (SAT solves, fuzz rounds, enumeration sweeps) carries
/// the rung's [`EngineTag`] — that tag, not time containment, is how
/// per-rung resource costs are attributed. The span itself records the
/// rung's [`EndReason`] on every exit path via its drop guard. With
/// tracing disabled the tagged handle is disabled too and the span is
/// inert, so verdicts cannot depend on instrumentation.
fn traced_rung<R>(
    name: &'static str,
    tag: EngineTag,
    trace: &TraceHandle,
    body: impl FnOnce(&TraceHandle) -> R,
    end: impl FnOnce(&R) -> EndReason,
) -> R {
    let tagged = trace.with_engine(tag);
    let mut span = trace.span(name, SpanKind::Rung);
    span.set_engine(tag);
    let out = body(&tagged);
    span.set_end(end(&out));
    out
}

/// Which verification engine [`Verifier::check`] runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Engine {
    /// Symbolic when the design is levelizable and 2-state encodable;
    /// otherwise exhaustive enumeration when the input space fits
    /// [`Verifier::exhaustive_limit`], and coverage-guided fuzzing beyond
    /// that.
    #[default]
    Auto,
    /// Symbolic only; out-of-subset designs are a [`VerifyError::Symbolic`].
    Symbolic,
    /// The concrete rung [`Engine::Auto`] falls back to, alone:
    /// enumeration when the input space fits [`Verifier::exhaustive_limit`],
    /// the fuzzer beyond that.
    Simulation,
    /// The coverage-guided fuzzer only, with [`Verifier::random_runs`] as
    /// its execution budget.
    Fuzz,
}

/// Bounded verifier configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Verifier {
    /// Post-reset cycles per run.
    pub depth: usize,
    /// Reset cycles at the head of every run.
    pub reset_cycles: usize,
    /// Cap on the stimuli the concrete rung enumerates; a larger input
    /// space goes to the fuzzer instead.
    pub exhaustive_limit: u64,
    /// The fuzzer's execution budget (number of simulated stimuli).
    pub random_runs: usize,
    /// Seed of the fuzzing campaign.
    pub seed: u64,
    /// Engine selection.
    pub engine: Engine,
    /// IR optimization level the design is compiled at. `Full` (default)
    /// runs the `asv-ir` pass pipeline; `None` keeps the raw lowering as
    /// the differential reference. Verdicts are bit-identical either way
    /// (enforced by `tests/differential_opt.rs`); the service's job key
    /// covers the level, so mixed-opt workloads never alias in its
    /// verdict memo.
    pub opt: OptLevel,
}

impl Default for Verifier {
    fn default() -> Self {
        Verifier {
            depth: 12,
            reset_cycles: 2,
            exhaustive_limit: 4096,
            random_runs: 48,
            seed: 0xA55E_7501,
            engine: Engine::Auto,
            opt: OptLevel::Full,
        }
    }
}

impl Verifier {
    /// Creates a verifier with default bounds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks all assertions of `design` with the configured [`Engine`].
    ///
    /// The design is lowered and its assertions are compiled once per
    /// call. The symbolic engine decides the entire bounded input space;
    /// the concrete rung enumerates it when small enough and fuzzes it
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::NoAssertions`] when the design has no
    /// assertion directives, [`VerifyError::Symbolic`] when
    /// [`Engine::Symbolic`] is forced on an out-of-subset design, and
    /// propagates simulation/monitoring errors.
    pub fn check(&self, design: &Design) -> Result<Verdict, VerifyError> {
        self.check_traced(design, &TraceHandle::disabled())
    }

    /// [`Verifier::check`] with every engine emitting spans through
    /// `trace`. The handle is *per call* and only observes: it is not
    /// part of the verifier's identity, and verdicts are bit-identical
    /// with tracing on or off.
    ///
    /// # Errors
    ///
    /// As [`Verifier::check`], plus [`VerifyError::Exhausted`] when a
    /// forced [`Engine::Symbolic`] spends a `BmcOptions` cap.
    pub fn check_traced(
        &self,
        design: &Design,
        trace: &TraceHandle,
    ) -> Result<Verdict, VerifyError> {
        if design.module.assertions().count() == 0 {
            return Err(VerifyError::NoAssertions);
        }
        let compiled = Arc::new(CompiledDesign::compile_traced(design, self.opt, trace));
        // State index == trace column: the checker can be built from the
        // compiled design's interner before any trace exists.
        let col = |name: &str| compiled.sig(name).map(|s| s.idx());
        let checker = CompiledChecker::new(&design.module, col)?;
        let symbolic = || {
            traced_rung(
                probe::RUNG_SYMBOLIC,
                EngineTag::Symbolic,
                trace,
                |t| self.check_symbolic(&compiled, &checker, t),
                symbolic_end,
            )
        };
        match self.engine {
            // Symbolic first; either symbolic failure (out of subset or a
            // spent cap) hands the design to the concrete rung.
            Engine::Auto => {
                symbolic().or_else(|_| self.check_concrete(design, &compiled, &checker, trace))
            }
            Engine::Symbolic => symbolic().map_err(RungFailure::into_error),
            Engine::Simulation => self.check_concrete(design, &compiled, &checker, trace),
            Engine::Fuzz => traced_rung(
                probe::RUNG_FUZZ,
                EngineTag::Fuzz,
                trace,
                |t| self.check_fuzz(design, &compiled, &checker, t),
                verdict_end,
            ),
        }
    }

    /// The concrete rung, which [`Engine::Simulation`] runs alone and
    /// [`Engine::Auto`] after a symbolic attempt without a verdict:
    /// enumeration if the input space fits [`Verifier::exhaustive_limit`],
    /// and the fuzzer at [`Verifier::random_runs`] otherwise.
    fn check_concrete(
        &self,
        design: &Design,
        compiled: &Arc<CompiledDesign>,
        checker: &CompiledChecker,
        trace: &TraceHandle,
    ) -> Result<Verdict, VerifyError> {
        match StimulusGen::new(design).exhaustive(
            self.depth,
            self.reset_cycles,
            self.exhaustive_limit,
        ) {
            Some(all) => traced_rung(
                probe::RUNG_ENUM,
                EngineTag::Enumeration,
                trace,
                |t| self.check_enumerated(design, compiled, checker, all, t),
                verdict_end,
            ),
            None => traced_rung(
                probe::RUNG_FUZZ,
                EngineTag::Fuzz,
                trace,
                |t| self.check_fuzz(design, compiled, checker, t),
                verdict_end,
            ),
        }
    }

    /// Runs the symbolic engine. A [`RungFailure`] means the engine could
    /// not produce a verdict (out-of-subset design or a spent cap) — the
    /// caller decides between fallback and a hard error.
    fn check_symbolic(
        &self,
        compiled: &Arc<CompiledDesign>,
        checker: &CompiledChecker,
        trace: &TraceHandle,
    ) -> Result<Verdict, RungFailure> {
        let opts = BmcOptions {
            depth: self.depth,
            reset_cycles: self.reset_cycles,
            ..BmcOptions::default()
        };
        let bmc = match asv_sat::engine::check_traced(compiled, opts, trace) {
            Ok(v) => v,
            Err(BmcError::Exhausted(e)) => return Err(RungFailure::Exhausted(e)),
            Err(BmcError::Unsupported(reason)) => return Err(RungFailure::Unsupported(reason)),
        };
        match bmc {
            BmcVerdict::Holds { vacuous } => Ok(Verdict::Holds {
                exhaustive: true,
                stimuli: 0,
                vacuous,
            }),
            BmcVerdict::Fails { stimulus } => {
                // Replay the witness concretely: the reported failures and
                // logs must be exactly what a simulation run produces.
                let mut sim = Simulator::from_compiled(Arc::clone(compiled));
                for t in 0..stimulus.len() {
                    if let Err(e) = sim.step(&stimulus.cycle(t)) {
                        return Err(RungFailure::Unsupported(format!(
                            "witness replay raised `{e}`"
                        )));
                    }
                }
                let trace = sim.into_trace();
                let results = match checker.outcomes(&trace) {
                    Ok(r) => r,
                    Err(e) => {
                        return Err(RungFailure::Unsupported(format!(
                            "witness monitoring raised `{e}`"
                        )))
                    }
                };
                let mut failures = Vec::new();
                for (_, outcome) in results {
                    if let CheckOutcome::Failed(f) = outcome {
                        failures.extend(f);
                    }
                }
                if failures.is_empty() {
                    return Err(RungFailure::Unsupported(
                        "witness did not replay to a concrete failure".into(),
                    ));
                }
                let logs = failures.iter().map(ToString::to_string).collect();
                Ok(Verdict::Fails(Arc::new(CounterExample {
                    stimulus,
                    failures,
                    logs,
                })))
            }
        }
    }

    /// Checks a fully enumerated stimulus set (exhaustive coverage).
    fn check_enumerated(
        &self,
        design: &Design,
        compiled: &Arc<CompiledDesign>,
        checker: &CompiledChecker,
        all: Vec<Stimulus>,
        trace: &TraceHandle,
    ) -> Result<Verdict, VerifyError> {
        let count = all.len();
        let mut span = trace.span(probe::SVA_ENUM, SpanKind::Enumeration);
        let mut fired: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        // Count bytecode ops only when someone is listening — the
        // untraced sweep keeps the fully uninstrumented simulator.
        let counting = trace.is_enabled();
        for group in all.chunks(LANES) {
            trace.instant(
                probe::SIM_BATCH,
                SpanKind::Batch,
                0,
                Cost {
                    batches: 1,
                    lanes_occupied: group.len() as u64,
                    lanes_total: LANES as u64,
                    ..Cost::default()
                },
            );
            let runs = run_stimulus_group(compiled, group, None, counting);
            // One shared monitor scratch stack for the whole group.
            let mut judged = checker
                .outcomes_lanes(
                    runs.iter()
                        .filter_map(|o| o.as_ref().ok())
                        .map(|r| &r.trace),
                )
                .into_iter();
            for (j, outcome) in runs.iter().enumerate() {
                let run = match outcome {
                    Ok(run) => run,
                    Err(e) => return Err(VerifyError::Sim(e.clone())),
                };
                let results = judged.next().expect("one judgment per surviving lane")?;
                match classify_outcomes(&results, &group[j]) {
                    StimulusOutcome::Fails(cex) => return Ok(Verdict::Fails(Arc::new(cex))),
                    StimulusOutcome::Passes(names) => fired.extend(names),
                }
                // Per-stimulus accrual keeps the count honest when a
                // failure cuts the sweep short.
                span.add_cost(Cost {
                    stimuli: 1,
                    ops: run.ops,
                    ..Cost::default()
                });
            }
        }
        let vacuous = design
            .module
            .assertions()
            .map(|a| a.log_name().to_string())
            .filter(|n| !fired.contains(n))
            .collect();
        Ok(Verdict::Holds {
            exhaustive: true,
            stimuli: count,
            vacuous,
        })
    }

    /// The coverage-guided fuzzing engine, with [`Verifier::random_runs`]
    /// as its execution budget. Non-vacuity is read off the merged coverage map's
    /// antecedent bits; failures replay through [`run_stimulus`] so the
    /// reported logs are exactly what a concrete run produces.
    fn check_fuzz(
        &self,
        design: &Design,
        compiled: &Arc<CompiledDesign>,
        checker: &CompiledChecker,
        trace: &TraceHandle,
    ) -> Result<Verdict, VerifyError> {
        let oracle = CheckerOracle { checker };
        let opts = FuzzOptions {
            cycles: self.depth,
            reset_cycles: self.reset_cycles,
            budget: self.random_runs,
            seed: self.seed,
        };
        let res = asv_fuzz::fuzz_traced(compiled, &oracle, &opts, trace).map_err(|e| match e {
            FuzzError::Sim(s) => VerifyError::Sim(s),
            other => VerifyError::Fuzz(other.to_string()),
        })?;
        match res.verdict {
            FuzzVerdict::Failure { stimulus, .. } => {
                match run_stimulus(compiled, checker, stimulus)? {
                    StimulusOutcome::Fails(cex) => Ok(Verdict::Fails(Arc::new(cex))),
                    StimulusOutcome::Passes(_) => Err(VerifyError::Fuzz(
                        "fuzzer finding did not reproduce under the checker".into(),
                    )),
                }
            }
            FuzzVerdict::NoFailure => {
                let vacuous = design
                    .module
                    .assertions()
                    .enumerate()
                    .filter(|(i, _)| !res.coverage.antecedent_hit(*i))
                    .map(|(_, a)| a.log_name().to_string())
                    .collect();
                Ok(Verdict::Holds {
                    exhaustive: false,
                    stimuli: res.runs,
                    vacuous,
                })
            }
        }
    }

    /// Simulates one stimulus, returning the trace. The design is lowered
    /// once per call.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`].
    pub fn simulate(&self, design: &Design, stim: &Stimulus) -> Result<Trace, VerifyError> {
        let mut sim =
            Simulator::from_compiled(Arc::new(CompiledDesign::compile_opt(design, self.opt)));
        for t in 0..stim.len() {
            sim.step(&stim.cycle(t))?;
        }
        Ok(sim.into_trace())
    }

    /// Replays a counterexample and returns its trace (for CoT evidence).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`].
    pub fn replay(&self, design: &Design, cex: &CounterExample) -> Result<Trace, VerifyError> {
        self.simulate(design, &cex.stimulus)
    }
}

/// Adapter giving the fuzzer assertion feedback through the compiled
/// checker (property semantics stay in this crate).
struct CheckerOracle<'a> {
    checker: &'a CompiledChecker,
}

impl AssertionOracle for CheckerOracle<'_> {
    fn assertions(&self) -> usize {
        self.checker.assertion_count()
    }

    fn failed(&self, trace: &Trace, cov: &mut CovMap) -> Result<bool, String> {
        let out = self
            .checker
            .outcomes_cov(trace, cov)
            .map_err(|e| e.to_string())?;
        Ok(out.iter().any(|(_, o)| o.is_failure()))
    }
}

/// Outcome of simulating and monitoring one stimulus.
enum StimulusOutcome {
    /// Assertion failures were observed.
    Fails(CounterExample),
    /// No failure; the named assertions completed non-vacuously.
    Passes(Vec<String>),
}

/// Simulates and monitors one stimulus.
fn run_stimulus(
    compiled: &Arc<CompiledDesign>,
    checker: &CompiledChecker,
    stim: Stimulus,
) -> Result<StimulusOutcome, VerifyError> {
    let mut sim = Simulator::from_compiled(Arc::clone(compiled));
    for t in 0..stim.len() {
        sim.step(&stim.cycle(t))?;
    }
    let trace = sim.into_trace();
    let results = checker.outcomes(&trace)?;
    Ok(classify_outcomes(&results, &stim))
}

/// Folds one stimulus's per-directive monitor outcomes into a
/// [`StimulusOutcome`], cloning the stimulus into the counterexample
/// only on failure. Shared between the scalar runner and the
/// enumeration sweep so both classify identically.
fn classify_outcomes(
    results: &[(&asv_verilog::ast::AssertDirective, CheckOutcome)],
    stim: &Stimulus,
) -> StimulusOutcome {
    let mut failures = Vec::new();
    let mut passed = Vec::new();
    for (dir, outcome) in results {
        match outcome {
            CheckOutcome::Failed(f) => failures.extend(f.clone()),
            CheckOutcome::Passed { .. } => passed.push(dir.log_name().to_string()),
            CheckOutcome::Vacuous => {}
        }
    }
    if failures.is_empty() {
        StimulusOutcome::Passes(passed)
    } else {
        let logs = failures.iter().map(ToString::to_string).collect();
        StimulusOutcome::Fails(CounterExample {
            stimulus: stim.clone(),
            failures,
            logs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_verilog::compile;

    const GOOD: &str = r#"
module latch1(input clk, input rst_n, input d, output reg q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 1'b0;
    else q <= d;
  end
  property follow;
    @(posedge clk) disable iff (!rst_n) d |-> ##1 q;
  endproperty
  chk: assert property (follow) else $error("q must follow d");
endmodule
"#;

    const BAD: &str = r#"
module latch1(input clk, input rst_n, input d, output reg q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 1'b0;
    else q <= !d;
  end
  property follow;
    @(posedge clk) disable iff (!rst_n) d |-> ##1 q;
  endproperty
  chk: assert property (follow) else $error("q must follow d");
endmodule
"#;

    #[test]
    fn good_design_holds_exhaustively() {
        let d = compile(GOOD).expect("compile");
        let v = Verifier {
            depth: 6,
            ..Verifier::default()
        };
        match v.check(&d).expect("verify") {
            Verdict::Holds {
                exhaustive,
                vacuous,
                ..
            } => {
                assert!(exhaustive, "symbolic engine proves the bound");
                assert!(vacuous.is_empty());
            }
            Verdict::Fails(cex) => panic!("unexpected failure: {:?}", cex.logs),
            Verdict::Inconclusive {} => panic!("unexpected inconclusive verdict"),
        }
    }

    #[test]
    fn simulation_engine_still_enumerates() {
        let d = compile(GOOD).expect("compile");
        let v = Verifier {
            depth: 6,
            engine: Engine::Simulation,
            ..Verifier::default()
        };
        match v.check(&d).expect("verify") {
            Verdict::Holds {
                exhaustive,
                stimuli,
                vacuous,
            } => {
                assert!(exhaustive, "1-bit input over 6 cycles is enumerable");
                assert_eq!(stimuli, 64);
                assert!(vacuous.is_empty());
            }
            Verdict::Fails(cex) => panic!("unexpected failure: {:?}", cex.logs),
            Verdict::Inconclusive {} => panic!("unexpected inconclusive verdict"),
        }
    }

    #[test]
    fn bad_design_yields_counterexample_with_logs() {
        let d = compile(BAD).expect("compile");
        let v = Verifier {
            depth: 6,
            ..Verifier::default()
        };
        let Verdict::Fails(cex) = v.check(&d).expect("verify") else {
            panic!("bug must be found");
        };
        assert!(!cex.logs.is_empty());
        assert!(cex.logs[0].contains("failed assertion latch1.chk"));
        // Counterexample must replay to the same failure.
        let trace = v.replay(&d, &cex).expect("replay");
        let logs = crate::monitor::failure_logs(&d.module, &trace).expect("monitor");
        assert_eq!(logs, cex.logs);
    }

    #[test]
    fn symbolic_and_simulation_agree_on_the_latch() {
        let d = compile(BAD).expect("compile");
        let sym = Verifier {
            depth: 6,
            engine: Engine::Symbolic,
            ..Verifier::default()
        };
        let sim = Verifier {
            depth: 6,
            engine: Engine::Simulation,
            ..Verifier::default()
        };
        assert!(sym.check(&d).expect("symbolic").is_failure());
        assert!(sim.check(&d).expect("simulation").is_failure());
    }

    #[test]
    fn no_assertions_is_an_error() {
        let d = compile("module m(input a, output y); assign y = a; endmodule").expect("compile");
        assert_eq!(Verifier::new().check(&d), Err(VerifyError::NoAssertions));
    }

    #[test]
    fn wide_inputs_fall_back_to_random() {
        // Under Engine::Auto the symbolic engine proves the whole 8-bit ×
        // 8-cycle space. Engine::Simulation cannot enumerate it and runs
        // the concrete rung's seeded random search, the fuzzer, at
        // `random_runs`.
        let src = r#"
module add1(input clk, input rst_n, input [7:0] a, output reg [8:0] s);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) s <= 9'd0;
    else s <= a + 9'd1;
  end
  p_inc: assert property (@(posedge clk) disable iff (!rst_n)
    1'b1 |-> ##1 s == $past(a, 1) + 9'd1) else $error("bad sum");
endmodule
"#;
        let d = compile(src).expect("compile");
        let auto = Verifier {
            depth: 8,
            random_runs: 8,
            ..Verifier::default()
        };
        match auto.check(&d).expect("verify") {
            Verdict::Holds {
                exhaustive,
                stimuli,
                ..
            } => {
                assert!(exhaustive, "symbolic engine must prove the bound");
                assert_eq!(stimuli, 0, "no simulation needed for the proof");
            }
            Verdict::Fails(cex) => panic!("unexpected failure: {:?}", cex.logs),
            Verdict::Inconclusive {} => panic!("unexpected inconclusive verdict"),
        }
        let concrete = Verifier {
            engine: Engine::Simulation,
            ..auto
        };
        match concrete.check(&d).expect("verify") {
            Verdict::Holds {
                exhaustive,
                stimuli,
                ..
            } => {
                assert!(!exhaustive, "8-bit × 8 cycles cannot be enumerated");
                assert_eq!(stimuli, 8);
            }
            Verdict::Fails(cex) => panic!("unexpected failure: {:?}", cex.logs),
            Verdict::Inconclusive {} => panic!("unexpected inconclusive verdict"),
        }
    }

    #[test]
    fn rare_trigger_bug_is_refuted_by_auto() {
        // The buggy consequent fires only when a == 8'hA5 — a 1-in-256
        // event per cycle. The concrete rung at a budget of 8 runs only the
        // fuzzer's first round, whose stimuli are all random (its corpus
        // starts empty), and misses it; Engine::Auto refutes it
        // symbolically with a replaying counterexample.
        let src = r#"
module rare(input clk, input rst_n, input [7:0] a, output reg bad);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) bad <= 1'b0;
    else bad <= (a == 8'hA5);
  end
  p_rare: assert property (@(posedge clk) disable iff (!rst_n)
    a == 8'hA5 |-> ##1 !bad) else $error("rare trigger");
endmodule
"#;
        let d = compile(src).expect("compile");
        let concrete = Verifier {
            depth: 8,
            random_runs: 8,
            engine: Engine::Simulation,
            ..Verifier::default()
        };
        match concrete.check(&d).expect("verify") {
            Verdict::Holds { vacuous, .. } => {
                assert_eq!(
                    vacuous,
                    vec!["p_rare".to_string()],
                    "one random round must miss the rare trigger entirely"
                );
            }
            Verdict::Fails(_) => panic!("8 random runs cannot hit a 1/256 trigger with this seed"),
            Verdict::Inconclusive {} => panic!("unexpected inconclusive verdict"),
        }
        let auto = Verifier {
            depth: 8,
            random_runs: 8,
            ..Verifier::default()
        };
        let Verdict::Fails(cex) = auto.check(&d).expect("verify") else {
            panic!("symbolic engine must refute the rare-trigger bug");
        };
        assert!(cex.logs[0].contains("failed assertion rare.p_rare"));
        // Bit-identical replay on the compiled simulator.
        let trace = auto.replay(&d, &cex).expect("replay");
        let logs = crate::monitor::failure_logs(&d.module, &trace).expect("monitor");
        assert_eq!(logs, cex.logs);
    }

    #[test]
    fn forced_symbolic_engine_rejects_latch_designs() {
        let src = r#"
module lat(input clk, input en, input d, output reg q);
  always @(*) begin if (en) q = d; end
  p: assert property (@(posedge clk) 1'b1 |-> 1'b1);
endmodule
"#;
        let d = compile(src).expect("compile");
        let v = Verifier {
            engine: Engine::Symbolic,
            ..Verifier::default()
        };
        assert!(matches!(v.check(&d), Err(VerifyError::Symbolic(_))));
        // Auto falls back to simulation and still produces a verdict.
        let auto = Verifier::default();
        assert!(auto.check(&d).is_ok());
    }

    #[test]
    fn verdict_is_deterministic() {
        let d = compile(BAD).expect("compile");
        let v = Verifier::default();
        assert_eq!(v.check(&d).expect("a"), v.check(&d).expect("b"));
    }

    #[test]
    fn zero_random_runs_hold_trivially() {
        // Wide inputs + random_runs: 0: the concrete rung's fuzzer runs
        // nothing and must report "checked nothing, held vacuously", not
        // panic.
        let src = "module z(input clk, input [9:0] a, output reg [9:0] q);\n\
             always @(posedge clk) q <= a;\n\
             p: assert property (@(posedge clk) 1'b1 |-> 1'b1);\nendmodule";
        let d = compile(src).expect("compile");
        let v = Verifier {
            random_runs: 0,
            engine: Engine::Simulation,
            ..Verifier::default()
        };
        match v.check(&d).expect("verify") {
            Verdict::Holds {
                exhaustive,
                stimuli,
                vacuous,
            } => {
                assert!(!exhaustive);
                assert_eq!(stimuli, 0);
                assert_eq!(vacuous, vec!["p".to_string()]);
            }
            Verdict::Fails(cex) => panic!("nothing was checked: {:?}", cex.logs),
            Verdict::Inconclusive {} => panic!("unexpected inconclusive verdict"),
        }
    }

    /// Rare trigger (`a == 16'hBEEF`) in a design the symbolic engine
    /// rejects (latch-style combinational block): the scenario class the
    /// fuzzing engine exists for.
    const LATCH_RARE: &str = r#"
module lrare(input clk, input rst_n, input [15:0] a, output reg bad);
  reg shadow;
  always @(*) begin if (a[0]) shadow = a[1]; end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) bad <= 1'b0;
    else bad <= (a == 16'hBEEF);
  end
  p_rare: assert property (@(posedge clk) disable iff (!rst_n)
    a == 16'hBEEF |-> ##1 !bad) else $error("rare trigger");
endmodule
"#;

    #[test]
    fn fuzz_finds_rare_trigger_where_sampling_misses() {
        let d = compile(LATCH_RARE).expect("compile");
        assert!(
            matches!(
                Verifier {
                    engine: Engine::Symbolic,
                    ..Verifier::default()
                }
                .check(&d),
                Err(VerifyError::Symbolic(_))
            ),
            "scenario must be outside the symbolic subset"
        );
        // 64 blind random stimuli of 8 cycles hit a 1/65536-per-cycle
        // trigger with odds under 1%; the dictionary-guided fuzzer
        // refutes it at that budget.
        let budget = Verifier {
            depth: 8,
            random_runs: 64,
            ..Verifier::default()
        };
        let fuzzed = Verifier {
            engine: Engine::Fuzz,
            ..budget
        };
        let Verdict::Fails(cex) = fuzzed.check(&d).expect("verify") else {
            panic!("fuzzer must find the rare trigger");
        };
        assert!(cex.logs[0].contains("failed assertion lrare.p_rare"));
        // Counterexamples replay bit-identically, like every engine's.
        let trace = fuzzed.replay(&d, &cex).expect("replay");
        let logs = crate::monitor::failure_logs(&d.module, &trace).expect("monitor");
        assert_eq!(logs, cex.logs);
        // Engine::Auto routes this out-of-subset design to the fuzzer too.
        assert!(budget.check(&d).expect("auto").is_failure());
    }

    #[test]
    fn fuzz_verdict_is_deterministic() {
        let d = compile(LATCH_RARE).expect("compile");
        let v = Verifier {
            depth: 8,
            random_runs: 48,
            engine: Engine::Fuzz,
            ..Verifier::default()
        };
        assert_eq!(v.check(&d).expect("a"), v.check(&d).expect("b"));
    }

    #[test]
    fn fuzz_reports_non_vacuous_holds_on_safe_designs() {
        // Same rare antecedent, correct consequent: the fuzzer still digs
        // up the trigger, so the hold is non-vacuous where blind random
        // stimuli would leave it vacuous.
        let src = LATCH_RARE.replace("bad <= (a == 16'hBEEF);", "bad <= 1'b0;");
        let d = compile(&src).expect("compile");
        let v = Verifier {
            depth: 8,
            random_runs: 64,
            engine: Engine::Fuzz,
            ..Verifier::default()
        };
        match v.check(&d).expect("verify") {
            Verdict::Holds {
                exhaustive,
                stimuli,
                vacuous,
            } => {
                assert!(!exhaustive);
                assert_eq!(stimuli, 64);
                assert!(
                    vacuous.is_empty(),
                    "fuzzer must exercise the rare antecedent: {vacuous:?}"
                );
            }
            Verdict::Fails(cex) => panic!("safe design failed: {:?}", cex.logs),
            Verdict::Inconclusive {} => panic!("unexpected inconclusive verdict"),
        }
    }

    #[test]
    fn forced_symbolic_reports_a_spent_cap_as_exhaustion() {
        use asv_sim::cancel::Resource;
        let spent = Exhausted {
            resource: Resource::SatConflicts,
            spent: 4,
            limit: 4,
        };
        assert_eq!(
            RungFailure::Exhausted(spent).into_error(),
            VerifyError::Exhausted(spent)
        );
        assert_eq!(
            RungFailure::Unsupported("latch".into()).into_error(),
            VerifyError::Symbolic("latch".into())
        );
    }
}
