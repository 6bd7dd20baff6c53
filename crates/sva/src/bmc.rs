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
//! * **Simulation** — the original oracle: exhaustive stimulus enumeration
//!   when the input space fits [`Verifier::exhaustive_limit`], otherwise
//!   seeded random sampling (identical stimuli deduplicated, lane groups
//!   run in stimulus-index order, the first failure reported).
//! * **Fuzz** — the `asv-fuzz` coverage-guided greybox fuzzer: branch,
//!   toggle and antecedent coverage recorded per run feeds an AFL-style
//!   corpus whose mutations (including design-constant dictionary
//!   substitution) direct the search toward rare triggers blind sampling
//!   misses. Deterministic from [`Verifier::seed`]; the stimulus budget
//!   is [`Verifier::random_runs`], making fuzz and sampling verdicts
//!   comparable at equal cost.
//! * **Auto** (default) — symbolic whenever the design is levelizable and
//!   2-state encodable. Outside that subset (cyclic/latch designs,
//!   non-constant division, dynamic bit indices) it enumerates the input
//!   space when small enough and otherwise runs the **fuzzer** — not
//!   blind sampling — over the same budget.
//!
//! Every symbolic counterexample is replayed on the compiled simulator
//! before being reported, and every fuzzer finding additionally replays
//! on the `AstSimulator` interpreter oracle, so `Fails` verdicts carry
//! exactly the logs a concrete run produces.
//!
//! ## Budgets and the degradation ladder
//!
//! [`Verifier::check_budgeted`] threads a [`Budget`] (a trace handle and,
//! under the `fault-inject` feature, a fault session) into every engine.
//! An engine that runs out, whether of its own cap
//! (`BmcOptions::{conflict_budget, node_limit}`) or by an injected
//! exhaustion, reports the structured [`VerifyError::Exhausted`] when it
//! is forced as a single engine. [`Engine::Auto`] instead *degrades* down
//! a deterministic ladder (symbolic → exhaustive enumeration →
//! coverage-guided fuzzing → random sampling), isolating per-rung panics
//! and running every fallback rung at [`Verifier::random_runs`], and
//! reports [`Verdict::Inconclusive`] with the full attempt trace only
//! when every rung fails. Fault-free checks take exactly the pre-ladder
//! path, so their verdicts are bit-identical to the sequential chain.

pub use asv_sim::compile::OptLevel;

use crate::monitor::{AssertionFailure, CheckOutcome, CompiledChecker, MonitorError};
use asv_fuzz::{AssertionOracle, FuzzError, FuzzOptions, FuzzVerdict};
use asv_sat::engine::{BmcError, BmcOptions, BmcVerdict};
use asv_sim::cancel::{Budget, Exhausted};
use asv_sim::compile::CompiledDesign;
use asv_sim::cover::CovMap;
use asv_sim::exec::{SimError, Simulator};
use asv_sim::run_stimulus_group;
use asv_sim::stimulus::{Stimulus, StimulusGen};
use asv_sim::trace::Trace;
use asv_trace::{probe, Cost, EndReason, EngineTag, SpanKind, TraceSink};
use asv_verilog::sema::Design;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Result of verifying a design's assertions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// No failure found. `exhaustive` is true when the whole input space up
    /// to the depth was covered — by enumeration (`stimuli > 0`) or by a
    /// symbolic bounded proof (`stimuli == 0`); false when sampled.
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
    /// No engine produced a verdict within its budget: every rung of the
    /// [`Engine::Auto`] degradation ladder failed recoverably (resource
    /// exhaustion or an isolated panic). Never cached, never produced by
    /// a fault-free check.
    Inconclusive {
        /// Every engine attempt, in the order the ladder ran them.
        tried: Vec<TriedEngine>,
    },
}

/// One failed rung of the degradation ladder, recorded in
/// [`Verdict::Inconclusive`] so callers can see how far the check got
/// and why each engine gave up.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TriedEngine {
    /// The engine that ran.
    pub engine: Engine,
    /// Human-readable failure description: the exhaustion record, a
    /// caught panic payload, or the out-of-subset reason.
    pub reason: String,
    /// Structured record when the rung ran out of a budgeted resource
    /// (`None` for panics and out-of-subset designs).
    pub exhausted: Option<Exhausted>,
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
    /// symbolic engine's subset (with [`Engine::Auto`] this silently falls
    /// back to a concrete engine instead).
    Symbolic(String),
    /// The fuzzing engine failed (oracle error or a finding that did not
    /// replay on the interpreter — harness bugs, not design verdicts).
    Fuzz(String),
    /// A budgeted resource ran out before a verdict. Forced single-engine
    /// modes surface this directly; [`Engine::Auto`] degrades down the
    /// ladder instead and only reports [`Verdict::Inconclusive`] when
    /// every rung is exhausted.
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

impl From<Exhausted> for VerifyError {
    fn from(e: Exhausted) -> Self {
        VerifyError::Exhausted(e)
    }
}

/// Why the symbolic engine produced no verdict: the `Err` side of
/// [`Verifier::check_symbolic`], carrying enough structure for the ladder
/// to tell an exhausted engine from an out-of-subset design.
#[derive(Debug, Clone)]
struct RungFailure {
    /// Human-readable description (the [`VerifyError::Symbolic`] message
    /// when the symbolic engine is forced).
    reason: String,
    /// Structured record when a budgeted resource ran out; `None` when
    /// the design is outside the engine's subset, so the fallback is the
    /// design's *canonical* engine rather than a degraded one.
    exhausted: Option<Exhausted>,
}

impl RungFailure {
    /// An out-of-subset failure (no structured exhaustion): out-of-subset
    /// designs and witness-replay harness failures.
    fn fallback(reason: String) -> Self {
        RungFailure {
            reason,
            exhausted: None,
        }
    }

    /// The forced-engine ([`Engine::Symbolic`]) error for this failure.
    fn into_error(self) -> VerifyError {
        match self.exhausted {
            Some(e) => VerifyError::Exhausted(e),
            None => VerifyError::Symbolic(self.reason),
        }
    }

    /// The ladder-trace record for this failure.
    fn tried(self, engine: Engine) -> TriedEngine {
        TriedEngine {
            engine,
            reason: self.reason,
            exhausted: self.exhausted,
        }
    }
}

/// Outcome of one degradation-ladder rung.
enum RungOutcome {
    /// The engine decided the check.
    Verdict(Verdict),
    /// Unrecoverable — propagate immediately: simulation/monitor errors
    /// (the design itself is broken, no engine will do better).
    Hard(VerifyError),
    /// Recoverable: resource exhaustion or an isolated panic.
    Exhausted(TriedEngine),
    /// Recoverable: the engine cannot handle the design at all, so the
    /// next rung is the canonical one.
    Unsupported(TriedEngine),
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(p) = payload.downcast_ref::<asv_sim::fault::InjectedPanic>() {
        return format!("injected fault at probe `{}`", p.0);
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    "opaque panic payload".into()
}

/// Runs one ladder rung with panic isolation and classifies the result.
///
/// The closure only touches per-call state (the rung rebuilds everything
/// it needs from the compiled design), so unwinding out of it leaves no
/// broken invariants behind — `AssertUnwindSafe` is sound here.
fn run_rung(engine: Engine, body: impl FnOnce() -> Result<Verdict, VerifyError>) -> RungOutcome {
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    classify_rung(engine, res)
}

/// Sorts a rung result into the [`RungOutcome`] taxonomy.
fn classify_rung(
    engine: Engine,
    res: std::thread::Result<Result<Verdict, VerifyError>>,
) -> RungOutcome {
    match res {
        Ok(Ok(v)) => RungOutcome::Verdict(v),
        Ok(Err(VerifyError::Exhausted(e))) => RungOutcome::Exhausted(TriedEngine {
            engine,
            reason: e.to_string(),
            exhausted: Some(e),
        }),
        Ok(Err(e)) => RungOutcome::Hard(e),
        Err(payload) => RungOutcome::Exhausted(TriedEngine {
            engine,
            reason: format!("panicked: {}", panic_message(payload.as_ref())),
            exhausted: None,
        }),
    }
}

/// [`EndReason`] of a finished verification attempt, for rung spans.
fn verdict_end(res: &Result<Verdict, VerifyError>) -> EndReason {
    match res {
        Ok(Verdict::Holds { .. }) => EndReason::Holds,
        Ok(Verdict::Fails(_)) => EndReason::Fails,
        Ok(Verdict::Inconclusive { .. }) => EndReason::Exhausted,
        Err(VerifyError::Exhausted(_)) => EndReason::Exhausted,
        Err(_) => EndReason::Unknown,
    }
}

/// [`EndReason`] of a classified ladder rung.
fn rung_end(outcome: &RungOutcome) -> EndReason {
    match outcome {
        RungOutcome::Verdict(Verdict::Holds { .. }) => EndReason::Holds,
        RungOutcome::Verdict(Verdict::Fails(_)) => EndReason::Fails,
        RungOutcome::Verdict(Verdict::Inconclusive { .. }) => EndReason::Exhausted,
        RungOutcome::Hard(_) => EndReason::Unknown,
        RungOutcome::Exhausted(t) if t.reason.starts_with("panicked") => EndReason::Panicked,
        RungOutcome::Exhausted(_) => EndReason::Exhausted,
        RungOutcome::Unsupported(_) => EndReason::Unsupported,
    }
}

/// Wraps one ladder rung in its trace span.
///
/// The body runs under an engine-tagged copy of `budget`, so every child
/// span it emits (SAT solves, fuzz rounds, enumeration sweeps) carries
/// the rung's [`EngineTag`] — that tag, not time containment, is how
/// per-rung resource costs are attributed. The span itself records the
/// rung's [`EndReason`] on every exit path via its drop guard. With
/// tracing disabled the tagged budget is byte-identical in behaviour and
/// the span is inert, so verdicts cannot depend on instrumentation.
fn traced_rung<R>(
    name: &'static str,
    tag: EngineTag,
    budget: &Budget,
    body: impl FnOnce(&Budget) -> R,
    end: impl FnOnce(&R) -> EndReason,
) -> R {
    let sink = budget.trace().clone();
    let tagged = budget.clone().with_trace(sink.with_engine(tag));
    let mut span = sink.span(name, SpanKind::Rung);
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
    /// The enumeration/sampling oracle only.
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
    /// Cap on exhaustively enumerated stimuli before falling back to
    /// random sampling (simulation engine).
    pub exhaustive_limit: u64,
    /// Stimulus budget of the concrete non-exhaustive engines: the number
    /// of random samples (simulation engine) and the fuzzer's execution
    /// budget — the same number, so the two are comparable at equal cost.
    pub random_runs: usize,
    /// RNG seed for random stimulus and fuzzing campaigns.
    pub seed: u64,
    /// Engine selection.
    pub engine: Engine,
    /// IR optimization level the design is compiled at. `Full` (default)
    /// runs the `asv-ir` pass pipeline; `None` keeps the raw lowering as
    /// the differential reference. Verdicts are bit-identical either way
    /// (enforced by `tests/differential_opt.rs`); compiled-design and
    /// verdict caches key on the level, so mixed-opt workloads never
    /// alias.
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

/// Compiled-design lookup through the process-wide **sharded** cache in
/// [`asv_sim::cache`]: callers that hold one design's lowering at the
/// same time (concurrent checks of one design) share it.
fn compiled_for(design: &Design, opt: OptLevel) -> Arc<CompiledDesign> {
    asv_sim::cache::global().get_or_compile_opt(design, opt)
}

/// [`compiled_for`] with compile-cost attribution: hits and misses both
/// land a `sim.compile` event on the caller's trace handle.
fn compiled_for_traced(
    design: &Design,
    opt: OptLevel,
    trace: &asv_trace::TraceHandle,
) -> Arc<CompiledDesign> {
    asv_sim::cache::global().get_or_compile_traced(design, opt, trace)
}

impl Verifier {
    /// Creates a verifier with default bounds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks all assertions of `design` with the configured [`Engine`].
    ///
    /// The design is lowered once per call (shared with any caller that
    /// holds the same lowering); assertions are compiled once per call. The symbolic engine decides the entire
    /// bounded input space; the simulation engine enumerates it when small
    /// enough and samples otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::NoAssertions`] when the design has no
    /// assertion directives, [`VerifyError::Symbolic`] when
    /// [`Engine::Symbolic`] is forced on an out-of-subset design, and
    /// propagates simulation/monitoring errors.
    pub fn check(&self, design: &Design) -> Result<Verdict, VerifyError> {
        self.check_budgeted(design, &Budget::unbounded())
    }

    /// [`Verifier::check`] under a [`Budget`]: every engine emits spans
    /// through its trace handle and fires its fault probes. The budget is
    /// *per call* — it is not part of the verifier's identity, so verdict
    /// caches keyed on [`Verifier`] stay valid whatever budget a call
    /// carries.
    ///
    /// # Errors
    ///
    /// As [`Verifier::check`], plus [`VerifyError::Exhausted`] when a
    /// forced single-engine mode runs out of a bounded resource.
    /// [`Engine::Auto`] degrades down the ladder instead and reports
    /// [`Verdict::Inconclusive`] when every rung fails.
    pub fn check_budgeted(&self, design: &Design, budget: &Budget) -> Result<Verdict, VerifyError> {
        if design.module.assertions().count() == 0 {
            return Err(VerifyError::NoAssertions);
        }
        let compiled = compiled_for_traced(design, self.opt, budget.trace());
        // State index == trace column: the checker can be built from the
        // compiled design's interner before any trace exists.
        let col = |name: &str| compiled.sig(name).map(|s| s.idx());
        let checker = CompiledChecker::new(&design.module, col)?;
        match self.engine {
            Engine::Simulation => self.check_simulation(design, &compiled, &checker, budget),
            Engine::Fuzz => traced_rung(
                probe::RUNG_FUZZ,
                EngineTag::Fuzz,
                budget,
                |b| self.check_fuzz(design, &compiled, &checker, b),
                verdict_end,
            ),
            Engine::Symbolic => traced_rung(
                probe::RUNG_SYMBOLIC,
                EngineTag::Symbolic,
                budget,
                |b| {
                    self.check_symbolic(&compiled, &checker, b)
                        .map_err(RungFailure::into_error)
                },
                verdict_end,
            ),
            Engine::Auto => self.check_auto(design, &compiled, &checker, budget),
        }
    }

    /// The sequential [`Engine::Auto`] chain, now the top of the
    /// degradation ladder: symbolic first, then the concrete rungs. A
    /// fault-free run takes exactly the pre-ladder path (symbolic, else
    /// enumeration, else fuzzing).
    fn check_auto(
        &self,
        design: &Design,
        compiled: &Arc<CompiledDesign>,
        checker: &CompiledChecker,
        budget: &Budget,
    ) -> Result<Verdict, VerifyError> {
        let tried = match traced_rung(
            probe::RUNG_SYMBOLIC,
            EngineTag::Symbolic,
            budget,
            |b| self.symbolic_rung(compiled, checker, b),
            rung_end,
        ) {
            RungOutcome::Verdict(v) => return Ok(v),
            RungOutcome::Hard(e) => return Err(e),
            RungOutcome::Exhausted(t) | RungOutcome::Unsupported(t) => vec![t],
        };
        self.check_concrete_ladder(design, compiled, checker, budget, tried)
    }

    /// The symbolic rung: [`Verifier::check_symbolic`] with panic
    /// isolation, classified for the ladder.
    fn symbolic_rung(
        &self,
        compiled: &Arc<CompiledDesign>,
        checker: &CompiledChecker,
        budget: &Budget,
    ) -> RungOutcome {
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.check_symbolic(compiled, checker, budget)
        }));
        match res {
            Ok(Ok(verdict)) => RungOutcome::Verdict(verdict),
            Ok(Err(fall)) if fall.exhausted.is_none() => {
                RungOutcome::Unsupported(fall.tried(Engine::Symbolic))
            }
            Ok(Err(fall)) => RungOutcome::Exhausted(fall.tried(Engine::Symbolic)),
            Err(payload) => classify_rung(Engine::Symbolic, Err(payload)),
        }
    }

    /// The concrete rungs of the degradation ladder: enumeration (when
    /// feasible) → coverage-guided fuzzing → blind random sampling, each
    /// panic-isolated and each at the full stimulus budget. Returns
    /// [`Verdict::Inconclusive`] with the attempt trace when every rung
    /// fails recoverably.
    fn check_concrete_ladder(
        &self,
        design: &Design,
        compiled: &Arc<CompiledDesign>,
        checker: &CompiledChecker,
        budget: &Budget,
        mut tried: Vec<TriedEngine>,
    ) -> Result<Verdict, VerifyError> {
        let gen = StimulusGen::new(design);
        if let Some(all) = gen.exhaustive(self.depth, self.reset_cycles, self.exhaustive_limit) {
            match traced_rung(
                probe::RUNG_ENUM,
                EngineTag::Enumeration,
                budget,
                |b| {
                    run_rung(Engine::Simulation, || {
                        self.check_enumerated(design, compiled, checker, all, b)
                    })
                },
                rung_end,
            ) {
                RungOutcome::Verdict(v) => return Ok(v),
                RungOutcome::Hard(e) => return Err(e),
                RungOutcome::Exhausted(t) | RungOutcome::Unsupported(t) => tried.push(t),
            }
        }
        match traced_rung(
            probe::RUNG_FUZZ,
            EngineTag::Fuzz,
            budget,
            |b| {
                run_rung(Engine::Fuzz, || {
                    self.check_fuzz(design, compiled, checker, b)
                })
            },
            rung_end,
        ) {
            RungOutcome::Verdict(v) => return Ok(v),
            RungOutcome::Hard(e) => return Err(e),
            RungOutcome::Exhausted(t) | RungOutcome::Unsupported(t) => tried.push(t),
        }
        // Last resort: blind sampling shares no infrastructure with the
        // fuzzer (no corpus, no coverage maps), so it survives failure
        // modes that take the fuzzer down.
        match traced_rung(
            probe::RUNG_SAMPLE,
            EngineTag::Sampling,
            budget,
            |b| {
                run_rung(Engine::Simulation, || {
                    self.check_sampled(design, compiled, checker, b)
                })
            },
            rung_end,
        ) {
            RungOutcome::Verdict(v) => Ok(v),
            RungOutcome::Hard(e) => Err(e),
            RungOutcome::Exhausted(t) | RungOutcome::Unsupported(t) => {
                tried.push(t);
                Ok(Verdict::Inconclusive { tried })
            }
        }
    }

    /// Runs the symbolic engine. A [`RungFailure`] means the engine could
    /// not produce a verdict (out-of-subset design or an exhausted
    /// budget) — the caller decides between fallback and a hard error.
    fn check_symbolic(
        &self,
        compiled: &Arc<CompiledDesign>,
        checker: &CompiledChecker,
        budget: &Budget,
    ) -> Result<Verdict, RungFailure> {
        let opts = BmcOptions {
            depth: self.depth,
            reset_cycles: self.reset_cycles,
            ..BmcOptions::default()
        };
        let bmc = match asv_sat::engine::check_budgeted(compiled, opts, budget) {
            Ok(v) => v,
            Err(BmcError::Exhausted(e)) => {
                return Err(RungFailure {
                    reason: e.to_string(),
                    exhausted: Some(e),
                })
            }
            Err(e) => return Err(RungFailure::fallback(e.to_string())),
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
                        return Err(RungFailure::fallback(format!(
                            "witness replay raised `{e}`"
                        )));
                    }
                }
                let trace = sim.into_trace();
                let results = match checker.outcomes(&trace) {
                    Ok(r) => r,
                    Err(e) => {
                        return Err(RungFailure::fallback(format!(
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
                    return Err(RungFailure::fallback(
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

    /// The enumeration/sampling oracle.
    fn check_simulation(
        &self,
        design: &Design,
        compiled: &Arc<CompiledDesign>,
        checker: &CompiledChecker,
        budget: &Budget,
    ) -> Result<Verdict, VerifyError> {
        let gen = StimulusGen::new(design);
        match gen.exhaustive(self.depth, self.reset_cycles, self.exhaustive_limit) {
            Some(all) => traced_rung(
                probe::RUNG_ENUM,
                EngineTag::Enumeration,
                budget,
                |b| self.check_enumerated(design, compiled, checker, all, b),
                verdict_end,
            ),
            None => traced_rung(
                probe::RUNG_SAMPLE,
                EngineTag::Sampling,
                budget,
                |b| self.check_sampled(design, compiled, checker, b),
                verdict_end,
            ),
        }
    }

    /// Seeded random sampling over [`Verifier::random_runs`] stimuli: the
    /// non-exhaustive half of the simulation oracle and the ladder's last
    /// rung.
    fn check_sampled(
        &self,
        design: &Design,
        compiled: &Arc<CompiledDesign>,
        checker: &CompiledChecker,
        budget: &Budget,
    ) -> Result<Verdict, VerifyError> {
        let runs = self.random_runs;
        // The sampling rung's one fault probe.
        budget.probe(probe::SVA_SAMPLE)?;
        let sink = budget.trace().clone();
        let mut span = sink.span(probe::SVA_SAMPLE, SpanKind::Sampling);
        let gen = StimulusGen::new(design);
        // Per-stimulus RNG streams (SplitMix64-expanded seeds) are
        // decorrelated but can still collide on narrow inputs;
        // identical stimuli are deduplicated so no run repeats.
        let mut seen: std::collections::HashSet<Stimulus> =
            std::collections::HashSet::with_capacity(runs);
        let stimuli: Vec<Stimulus> = (0..runs)
            .map(|i| {
                gen.random_seeded(
                    self.depth,
                    self.reset_cycles,
                    self.seed.wrapping_add(i as u64),
                )
            })
            .filter(|s| seen.insert(s.clone()))
            .collect();
        let count = stimuli.len();
        span.add_cost(Cost {
            stimuli: count as u64,
            ..Cost::default()
        });
        // Scheduled-basis batch accounting: the lane grouping is a pure
        // function of the stimulus count, so it is emitted once here even
        // when a failure stops the loop early.
        if count > 0 {
            let batches = count.div_ceil(LANES) as u64;
            sink.instant(
                probe::SIM_BATCH,
                SpanKind::Batch,
                0,
                Cost {
                    batches,
                    lanes_occupied: count as u64,
                    lanes_total: batches * LANES as u64,
                    ..Cost::default()
                },
            );
        }
        let mut fired = std::collections::BTreeSet::new();
        let first = first_failure(compiled, checker, &stimuli, &mut fired)?;
        Ok(match first {
            Some(cex) => Verdict::Fails(Arc::new(cex)),
            None => self.holds(design, false, count, fired),
        })
    }

    /// Checks a fully enumerated stimulus set (exhaustive coverage).
    fn check_enumerated(
        &self,
        design: &Design,
        compiled: &Arc<CompiledDesign>,
        checker: &CompiledChecker,
        all: Vec<Stimulus>,
        budget: &Budget,
    ) -> Result<Verdict, VerifyError> {
        let count = all.len();
        let sink = budget.trace().clone();
        let mut span = sink.span(probe::SVA_ENUM, SpanKind::Enumeration);
        let mut fired: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        // Count bytecode ops only when someone is listening — the
        // untraced sweep keeps the fully uninstrumented simulator.
        let counting = sink.is_enabled();
        for group in all.chunks(LANES) {
            // Fire the per-stimulus fault probes *before* the group runs —
            // one draw per stimulus, exactly the cardinality the scalar
            // sweep had, so deterministic fault schedules keyed on this
            // probe hit the same stimulus ordinals. (Under an injected
            // fault the batched sweep stops before the group's earlier
            // stimuli run, where the scalar sweep had already run and
            // accrued them — cost accounting under fault is the one
            // tolerated difference; verdicts and probe draws match.)
            for _ in group {
                budget.probe(probe::SVA_ENUM)?;
            }
            sink.instant(
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
            let runs = run_stimulus_group(compiled, group, LANES, None, counting);
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
        Ok(self.holds(design, true, count, fired))
    }

    /// The coverage-guided fuzzing engine, with [`Verifier::random_runs`]
    /// as its execution budget so its verdicts compare to sampling at
    /// equal cost. Non-vacuity is read off the merged coverage map's
    /// antecedent bits; failures replay through [`run_stimulus`] so the
    /// reported logs are exactly what a concrete run produces.
    fn check_fuzz(
        &self,
        design: &Design,
        compiled: &Arc<CompiledDesign>,
        checker: &CompiledChecker,
        budget: &Budget,
    ) -> Result<Verdict, VerifyError> {
        let oracle = CheckerOracle { checker };
        let opts = FuzzOptions {
            cycles: self.depth,
            reset_cycles: self.reset_cycles,
            budget: self.random_runs,
            seed: self.seed,
            ..FuzzOptions::default()
        };
        let res =
            asv_fuzz::fuzz_budgeted(compiled, &oracle, &opts, budget).map_err(|e| match e {
                FuzzError::Sim(s) => VerifyError::Sim(s),
                FuzzError::Exhausted(ex) => VerifyError::Exhausted(ex),
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

    fn holds(
        &self,
        design: &Design,
        exhaustive: bool,
        stimuli: usize,
        fired: std::collections::BTreeSet<String>,
    ) -> Verdict {
        let vacuous: Vec<String> = design
            .module
            .assertions()
            .map(|a| a.log_name().to_string())
            .filter(|n| !fired.contains(n))
            .collect();
        Verdict::Holds {
            exhaustive,
            stimuli,
            vacuous,
        }
    }

    /// Simulates one stimulus, returning the trace. The design is lowered
    /// through the shared compile cache, so a lowering another caller
    /// still holds is reused.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`].
    pub fn simulate(&self, design: &Design, stim: &Stimulus) -> Result<Trace, VerifyError> {
        let mut sim = Simulator::from_compiled(compiled_for(design, self.opt));
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
/// lane-batched group paths so both classify identically.
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

/// Lane width for batched stimulus simulation: each group of this many
/// stimuli runs through one SoA bytecode pass
/// ([`asv_sim::run_stimulus_group`], bit-identical per lane to the
/// scalar loop it replaces). Deliberately a private constant rather
/// than a [`Verifier`] field — `Verifier` derives `Hash`/`Serialize`
/// as the service cache key, and the lane width must never affect
/// verdicts or cache identity.
const LANES: usize = 16;

/// Runs sampled `stimuli` in lane groups, in stimulus-index order,
/// collecting the assertions that passed non-vacuously into `fired`.
/// Returns the first failing stimulus's counterexample, or the first
/// error, whichever comes first; `None` when every stimulus passes.
fn first_failure(
    compiled: &Arc<CompiledDesign>,
    checker: &CompiledChecker,
    stimuli: &[Stimulus],
    fired: &mut std::collections::BTreeSet<String>,
) -> Result<Option<CounterExample>, VerifyError> {
    for group in stimuli.chunks(LANES) {
        let runs = run_stimulus_group(compiled, group, LANES, None, false);
        // One shared monitor scratch stack for the whole group.
        let mut judged = checker
            .outcomes_lanes(
                runs.iter()
                    .filter_map(|o| o.as_ref().ok())
                    .map(|r| &r.trace),
            )
            .into_iter();
        for (outcome, stim) in runs.iter().zip(group) {
            if let Err(e) = outcome {
                return Err(VerifyError::Sim(e.clone()));
            }
            let results = judged.next().expect("one judgment per surviving lane")?;
            match classify_outcomes(&results, stim) {
                StimulusOutcome::Fails(cex) => return Ok(Some(cex)),
                StimulusOutcome::Passes(names) => fired.extend(names),
            }
        }
    }
    Ok(None)
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
            Verdict::Inconclusive { tried } => panic!("unexpected inconclusive: {tried:?}"),
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
            Verdict::Inconclusive { tried } => panic!("unexpected inconclusive: {tried:?}"),
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
        // Under Engine::Auto this scenario is no longer statistically
        // hollow: the symbolic engine proves the whole 8-bit × 8-cycle
        // space. Engine::Simulation preserves the old sampling behaviour.
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
            Verdict::Inconclusive { tried } => panic!("unexpected inconclusive: {tried:?}"),
        }
        let sampled = Verifier {
            engine: Engine::Simulation,
            ..auto
        };
        match sampled.check(&d).expect("verify") {
            Verdict::Holds {
                exhaustive,
                stimuli,
                ..
            } => {
                assert!(!exhaustive, "8-bit × 8 cycles cannot be enumerated");
                assert_eq!(stimuli, 8);
            }
            Verdict::Fails(cex) => panic!("unexpected failure: {:?}", cex.logs),
            Verdict::Inconclusive { tried } => panic!("unexpected inconclusive: {tried:?}"),
        }
    }

    #[test]
    fn rare_trigger_bug_is_refuted_by_auto() {
        // The buggy consequent fires only when a == 8'hA5 — a 1-in-256
        // event per cycle that seeded sampling misses, but Engine::Auto
        // refutes symbolically with a replaying counterexample.
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
        let sampled = Verifier {
            depth: 8,
            random_runs: 8,
            engine: Engine::Simulation,
            ..Verifier::default()
        };
        match sampled.check(&d).expect("verify") {
            Verdict::Holds { vacuous, .. } => {
                assert_eq!(
                    vacuous,
                    vec!["p_rare".to_string()],
                    "sampling must miss the rare trigger entirely"
                );
            }
            Verdict::Fails(_) => panic!("8 random runs cannot hit a 1/256 trigger with this seed"),
            Verdict::Inconclusive { tried } => panic!("unexpected inconclusive: {tried:?}"),
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
        // Wide inputs + random_runs: 0 must reproduce the sequential
        // loop's "checked nothing, held vacuously" verdict, not panic.
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
            Verdict::Inconclusive { tried } => panic!("unexpected inconclusive: {tried:?}"),
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
        let budget = Verifier {
            depth: 8,
            random_runs: 64,
            ..Verifier::default()
        };
        // Blind sampling at this budget cannot hit a 1/65536 trigger...
        let sampled = Verifier {
            engine: Engine::Simulation,
            ..budget
        };
        match sampled.check(&d).expect("verify") {
            Verdict::Holds { vacuous, .. } => assert_eq!(vacuous, vec!["p_rare".to_string()]),
            Verdict::Fails(_) => panic!("sampling cannot hit a 1/65536 trigger at budget 64"),
            Verdict::Inconclusive { tried } => panic!("unexpected inconclusive: {tried:?}"),
        }
        // ...the dictionary-guided fuzzer refutes it at the same budget.
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
        // up the trigger, so the hold is non-vacuous where sampling's is
        // vacuous.
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
            Verdict::Inconclusive { tried } => panic!("unexpected inconclusive: {tried:?}"),
        }
    }

    /// A plan that fires a synthetic exhaustion at every probe hit on
    /// every job.
    #[cfg(feature = "fault-inject")]
    fn exhaust_everywhere() -> Budget {
        use asv_sim::fault::{FaultKinds, FaultPlan};
        let plan = FaultPlan {
            rate_per_1024: 1024,
            victims_per_16: 16,
            kinds: FaultKinds::EXHAUST,
            ..FaultPlan::new(5)
        };
        Budget::unbounded().with_fault(plan.session(1))
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_exhaustion_degrades_to_inconclusive() {
        // Every rung's first probe exhausts before it simulates or solves
        // anything, and Auto reports the full attempt trace.
        use asv_sim::cancel::Resource;
        let d = compile(BAD).expect("compile");
        let v = Verifier {
            depth: 6,
            ..Verifier::default()
        };
        let verdict = v
            .check_budgeted(&d, &exhaust_everywhere())
            .expect("degrades, not errors");
        let Verdict::Inconclusive { tried } = &verdict else {
            panic!("an all-exhaust plan must be inconclusive, got {verdict:?}");
        };
        let engines: Vec<Engine> = tried.iter().map(|t| t.engine).collect();
        assert_eq!(
            engines,
            vec![
                Engine::Symbolic,
                Engine::Simulation,
                Engine::Fuzz,
                Engine::Simulation
            ],
            "ladder order: symbolic, enumeration, fuzzing, sampling"
        );
        for t in tried {
            match t.exhausted {
                Some(e) => assert_eq!(e.resource, Resource::Injected, "{t:?}"),
                None => panic!("every rung must report structured exhaustion: {t:?}"),
            }
        }
        // Same plan, same trace: the ladder is deterministic.
        assert_eq!(v.check_budgeted(&d, &exhaust_everywhere()), Ok(verdict));
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn forced_engines_surface_injected_exhaustion() {
        use asv_sim::cancel::Resource;
        let d = compile(BAD).expect("compile");
        for engine in [Engine::Symbolic, Engine::Simulation, Engine::Fuzz] {
            let v = Verifier {
                depth: 6,
                engine,
                ..Verifier::default()
            };
            match v.check_budgeted(&d, &exhaust_everywhere()) {
                Err(VerifyError::Exhausted(e)) => {
                    assert_eq!(e.resource, Resource::Injected, "{engine:?}");
                }
                other => panic!("{engine:?} must exhaust, got {other:?}"),
            }
        }
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_panics_degrade_every_rung_to_inconclusive() {
        // A plan that fires a panic at every probe takes out all four
        // rungs; the ladder isolates each one and reports the trace
        // instead of unwinding.
        use asv_sim::fault::{FaultKinds, FaultPlan};
        asv_sim::fault::silence_injected_panics();
        let d = compile(BAD).expect("compile");
        let plan = FaultPlan {
            rate_per_1024: 1024,
            victims_per_16: 16,
            kinds: FaultKinds::PANIC,
            ..FaultPlan::new(7)
        };
        let budget = Budget::unbounded().with_fault(plan.session(1));
        let v = Verifier {
            depth: 6,
            ..Verifier::default()
        };
        let verdict = v.check_budgeted(&d, &budget).expect("degrades, not errors");
        let Verdict::Inconclusive { tried } = &verdict else {
            panic!("all-panic plan must be inconclusive, got {verdict:?}");
        };
        assert_eq!(tried.len(), 4, "{tried:?}");
        for t in tried {
            assert!(
                t.reason.contains("injected fault at probe"),
                "panic payloads must be preserved: {t:?}"
            );
        }
        // Same plan, same seed: the chaos outcome is reproducible.
        assert_eq!(v.check_budgeted(&d, &budget), Ok(verdict));
    }

    #[test]
    fn sampling_deduplicates_repeated_stimuli() {
        // One 1-bit input over 2 cycles: only 4 distinct stimuli exist, so
        // 32 sampled runs must collapse below 32 (no run repeats).
        let src = "module n(input clk, input rst_n, input d, output reg q);\n\
             always @(posedge clk or negedge rst_n) begin\n\
               if (!rst_n) q <= 1'b0; else q <= d;\n\
             end\n\
             p: assert property (@(posedge clk) disable iff (!rst_n) d |-> ##1 q);\nendmodule";
        let d = compile(src).expect("compile");
        let v = Verifier {
            depth: 2,
            random_runs: 32,
            exhaustive_limit: 1, // force the sampling path
            engine: Engine::Simulation,
            ..Verifier::default()
        };
        match v.check(&d).expect("verify") {
            Verdict::Holds { stimuli, .. } => {
                assert!(stimuli <= 4, "4 distinct stimuli exist, ran {stimuli}");
                assert!(stimuli >= 2, "dedup must not collapse everything");
            }
            Verdict::Fails(cex) => panic!("design holds: {:?}", cex.logs),
            Verdict::Inconclusive { tried } => panic!("unexpected inconclusive: {tried:?}"),
        }
    }

    #[test]
    fn sampling_reports_the_first_failing_stimulus() {
        // Wide inputs force the random path; the bug fires only when `a`
        // takes one of 16 values in 1024, so several sampled stimuli pass
        // before the first one fails.
        let src = r#"
module wsum(input clk, input rst_n, input [9:0] a, output reg [9:0] s);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) s <= 10'd0;
    else s <= (a[9:4] == 6'h15) ? a : a + 10'd1;
  end
  p_sum: assert property (@(posedge clk) disable iff (!rst_n)
    1'b1 |-> ##1 s == $past(a, 1) + 10'd1) else $error("bad sum");
endmodule
"#;
        let d = compile(src).expect("compile");
        let v = Verifier {
            depth: 6,
            random_runs: 48,
            engine: Engine::Simulation,
            ..Verifier::default()
        };
        // The rung's stimuli: one seeded stream per index, the first
        // occurrence of each kept.
        let gen = StimulusGen::new(&d);
        let mut seen = std::collections::HashSet::new();
        let stimuli: Vec<Stimulus> = (0..v.random_runs)
            .map(|i| gen.random_seeded(v.depth, v.reset_cycles, v.seed.wrapping_add(i as u64)))
            .filter(|s| seen.insert(s.clone()))
            .collect();
        let (index, logs) = stimuli
            .iter()
            .enumerate()
            .find_map(|(i, stim)| {
                let trace = v.simulate(&d, stim).expect("simulate");
                let logs = crate::monitor::failure_logs(&d.module, &trace).expect("monitor");
                (!logs.is_empty()).then_some((i, logs))
            })
            .expect("a sampled stimulus fails");
        assert!(index >= LANES, "the first failure lies past a lane group");
        let Verdict::Fails(cex) = v.check(&d).expect("verify") else {
            panic!("sampling must find the bug");
        };
        assert_eq!(cex.stimulus, stimuli[index]);
        assert_eq!(cex.logs, logs);
    }
}
